//! Derive macros for the offline `serde` shim.
//!
//! Two kinds of macro live here:
//!
//! * `Serialize`/`Deserialize` — no-op derives backing the marker traits
//!   in the sibling `serde` shim (annotation compatibility with the real
//!   crate; nothing in the tree serialises through them).
//! * `ToJson`/`FromJson` — *real* derives for the shim's `serde::json`
//!   layer.  They support named-field structs and enums whose variants
//!   are unit or named-field (the shapes the workspace uses); tuple
//!   structs, tuple variants, and generics raise a compile error asking
//!   for a manual impl.
//!
//! The real `serde_derive` leans on `syn`/`quote`; this shim parses the
//! token stream by hand, which is enough for the supported shapes: skip
//! attributes and visibility, read `struct`/`enum` + name, then walk the
//! brace-delimited body collecting field or variant names (tracking
//! `<`/`>` depth so commas inside generic types don't split fields).

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Accepts `#[derive(Serialize)]` and emits no code.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Accepts `#[derive(Deserialize)]` and emits no code.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Derives `serde::json::ToJson` for named-field structs and
/// unit/named-field enums.
#[proc_macro_derive(ToJson)]
pub fn derive_to_json(input: TokenStream) -> TokenStream {
    match parse_type(input) {
        Ok(def) => gen_to_json(&def).parse().expect("generated ToJson parses"),
        Err(e) => compile_error(&e),
    }
}

/// Derives `serde::json::FromJson` for named-field structs and
/// unit/named-field enums.
#[proc_macro_derive(FromJson)]
pub fn derive_from_json(input: TokenStream) -> TokenStream {
    match parse_type(input) {
        Ok(def) => gen_from_json(&def)
            .parse()
            .expect("generated FromJson parses"),
        Err(e) => compile_error(&e),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().expect("literal")
}

/// A variant's shape: `None` = unit, `Some(fields)` = named fields.
type Variant = (String, Option<Vec<String>>);

enum TypeDef {
    Struct { name: String, fields: Vec<String> },
    Enum { name: String, variants: Vec<Variant> },
}

/// Skips one attribute (`#[...]`) if the iterator is positioned at one.
fn skip_attrs(iter: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) {
    loop {
        match iter.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next();
                // The bracketed attribute body.
                iter.next();
            }
            _ => return,
        }
    }
}

/// Skips `pub`, `pub(crate)`, `pub(in ...)`.
fn skip_vis(iter: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) {
    if matches!(iter.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        iter.next();
        if matches!(
            iter.peek(),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
        ) {
            iter.next();
        }
    }
}

fn parse_type(input: TokenStream) -> Result<TypeDef, String> {
    let mut iter = input.into_iter().peekable();
    skip_attrs(&mut iter);
    skip_vis(&mut iter);

    let kind = match iter.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => return Err(format!("expected `struct` or `enum`, got {other:?}")),
    };
    let name = match iter.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => return Err(format!("expected type name, got {other:?}")),
    };

    // Find the brace-delimited body; generics or a tuple body are
    // unsupported shapes.
    let body = loop {
        match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g.stream(),
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                return Err(format!(
                    "derive(ToJson/FromJson) does not support generics on `{name}`; write a manual impl"
                ));
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => {
                return Err(format!(
                    "derive(ToJson/FromJson) does not support tuple/unit struct `{name}`; write a manual impl"
                ));
            }
            Some(_) => continue,
            None => return Err(format!("no body found for `{name}`")),
        }
    };

    match kind.as_str() {
        "struct" => Ok(TypeDef::Struct {
            fields: parse_fields(body)?,
            name,
        }),
        "enum" => Ok(TypeDef::Enum {
            variants: parse_variants(body, &name)?,
            name,
        }),
        other => Err(format!("cannot derive for `{other} {name}`")),
    }
}

/// Parses `name: Type, ...` out of a struct or variant body.
fn parse_fields(body: TokenStream) -> Result<Vec<String>, String> {
    let mut iter = body.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        skip_attrs(&mut iter);
        skip_vis(&mut iter);
        let field = match iter.next() {
            None => break,
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => return Err(format!("expected field name, got {other:?}")),
        };
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => return Err(format!("expected `:` after `{field}`, got {other:?}")),
        }
        // Skip the type: commas only split fields at angle-bracket depth 0.
        // The `>` of a `->` (fn-pointer return type) is not a closer.
        let mut angle_depth = 0i32;
        let mut prev_dash = false;
        for t in iter.by_ref() {
            let mut is_dash = false;
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' && !prev_dash => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == '-' => is_dash = true,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => break,
                _ => {}
            }
            prev_dash = is_dash;
        }
        fields.push(field);
    }
    Ok(fields)
}

/// Parses `Variant, Variant { a: T, .. }, ...` out of an enum body.
fn parse_variants(body: TokenStream, enum_name: &str) -> Result<Vec<Variant>, String> {
    let mut iter = body.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        skip_attrs(&mut iter);
        let name = match iter.next() {
            None => break,
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => return Err(format!("expected variant name, got {other:?}")),
        };
        match iter.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_fields(g.stream())?;
                iter.next();
                // Trailing comma, if any.
                if matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
                    iter.next();
                }
                variants.push((name, Some(fields)));
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                return Err(format!(
                    "derive(ToJson/FromJson): tuple variant `{enum_name}::{name}` unsupported; use named fields or a manual impl"
                ));
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {
                iter.next();
                variants.push((name, None));
            }
            None => {
                variants.push((name, None));
            }
            other => {
                return Err(format!(
                    "unexpected token after variant `{enum_name}::{name}`: {other:?}"
                ));
            }
        }
    }
    Ok(variants)
}

fn gen_to_json(def: &TypeDef) -> String {
    match def {
        TypeDef::Struct { name, fields } => {
            let mut inserts = String::new();
            for f in fields {
                inserts.push_str(&format!(
                    "__o.insert({f:?}, ::serde::json::ToJson::to_json(&self.{f}));\n"
                ));
            }
            format!(
                "#[automatically_derived]\n\
                 #[allow(clippy::all)]\n\
                 impl ::serde::json::ToJson for {name} {{\n\
                     fn to_json(&self) -> ::serde::json::Value {{\n\
                         let mut __o = ::serde::json::Object::new();\n\
                         {inserts}\
                         ::serde::json::Value::Object(__o)\n\
                     }}\n\
                 }}"
            )
        }
        TypeDef::Enum { name, variants } => {
            let mut arms = String::new();
            for (vname, shape) in variants {
                match shape {
                    None => arms.push_str(&format!(
                        "{name}::{vname} => ::serde::json::Value::Str(\
                         ::std::borrow::ToOwned::to_owned({vname:?})),\n"
                    )),
                    Some(fields) => {
                        let bindings = fields.join(", ");
                        let mut inserts = String::new();
                        for f in fields {
                            inserts.push_str(&format!(
                                "__i.insert({f:?}, ::serde::json::ToJson::to_json({f}));\n"
                            ));
                        }
                        arms.push_str(&format!(
                            "{name}::{vname} {{ {bindings} }} => {{\n\
                                 let mut __i = ::serde::json::Object::new();\n\
                                 {inserts}\
                                 let mut __o = ::serde::json::Object::new();\n\
                                 __o.insert({vname:?}, ::serde::json::Value::Object(__i));\n\
                                 ::serde::json::Value::Object(__o)\n\
                             }}\n"
                        ));
                    }
                }
            }
            format!(
                "#[automatically_derived]\n\
                 #[allow(clippy::all)]\n\
                 impl ::serde::json::ToJson for {name} {{\n\
                     fn to_json(&self) -> ::serde::json::Value {{\n\
                         match self {{\n{arms}\n}}\n\
                     }}\n\
                 }}"
            )
        }
    }
}

fn gen_from_json(def: &TypeDef) -> String {
    match def {
        TypeDef::Struct { name, fields } => {
            let mut builds = String::new();
            for f in fields {
                builds.push_str(&format!(
                    "{f}: ::serde::json::from_field(__o, {f:?}, {name:?})?,\n"
                ));
            }
            format!(
                "#[automatically_derived]\n\
                 #[allow(clippy::all)]\n\
                 impl ::serde::json::FromJson for {name} {{\n\
                     fn from_json(__v: &::serde::json::Value) -> \
                         ::core::result::Result<Self, ::serde::json::JsonError> {{\n\
                         let __o = __v.as_object().ok_or_else(|| \
                             ::serde::json::JsonError::type_mismatch(\"object\", {name:?}))?;\n\
                         ::core::result::Result::Ok({name} {{\n{builds}}})\n\
                     }}\n\
                 }}"
            )
        }
        TypeDef::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut named_arms = String::new();
            for (vname, shape) in variants {
                match shape {
                    None => unit_arms.push_str(&format!(
                        "{vname:?} => ::core::result::Result::Ok({name}::{vname}),\n"
                    )),
                    Some(fields) => {
                        let ctx = format!("{name}::{vname}");
                        let mut builds = String::new();
                        for f in fields {
                            builds.push_str(&format!(
                                "{f}: ::serde::json::from_field(__i, {f:?}, {ctx:?})?,\n"
                            ));
                        }
                        named_arms.push_str(&format!(
                            "{vname:?} => {{\n\
                                 let __i = __inner.as_object().ok_or_else(|| \
                                     ::serde::json::JsonError::type_mismatch(\"object\", {ctx:?}))?;\n\
                                 ::core::result::Result::Ok({name}::{vname} {{\n{builds}}})\n\
                             }}\n"
                        ));
                    }
                }
            }
            format!(
                "#[automatically_derived]\n\
                 #[allow(clippy::all)]\n\
                 impl ::serde::json::FromJson for {name} {{\n\
                     fn from_json(__v: &::serde::json::Value) -> \
                         ::core::result::Result<Self, ::serde::json::JsonError> {{\n\
                         if let ::core::option::Option::Some(__s) = __v.as_str() {{\n\
                             return match __s {{\n\
                                 {unit_arms}\
                                 __other => ::core::result::Result::Err(\
                                     ::serde::json::JsonError::unknown_variant(__other, {name:?})),\n\
                             }};\n\
                         }}\n\
                         let __o = __v.as_object().ok_or_else(|| \
                             ::serde::json::JsonError::type_mismatch(\"string or single-key object\", {name:?}))?;\n\
                         let (__tag, __inner) = __o.single_entry().ok_or_else(|| \
                             ::serde::json::JsonError::type_mismatch(\"single-key object\", {name:?}))?;\n\
                         match __tag {{\n\
                             {named_arms}\
                             __other => ::core::result::Result::Err(\
                                 ::serde::json::JsonError::unknown_variant(__other, {name:?})),\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
    }
}
