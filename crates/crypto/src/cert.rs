//! Certificates binding a server's contact address to its public key.
//!
//! Exactly the paper's Section 2 construction: "These certificates bind each
//! server's contact address (IP address and port number) to its public key",
//! are issued by the content owner, and signed with the *content key*.
//! Clients that know the content public key can therefore authenticate every
//! master, and (transitively, via master-issued slave certificates) every
//! slave.

use crate::digest::{Digest, Hash256};
use crate::error::CryptoError;
use crate::sha256::Sha256;
use crate::sign::{PublicKey, Signature, Signer};
use serde::{Deserialize, Serialize};

/// Role a certificate grants to its subject.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CertRole {
    /// The content owner itself (root of trust; self-signed).
    ContentOwner,
    /// A trusted master server.
    Master,
    /// A marginally-trusted slave server.
    Slave,
    /// The elected auditor.
    Auditor,
}

impl CertRole {
    fn tag(self) -> u8 {
        match self {
            CertRole::ContentOwner => 0,
            CertRole::Master => 1,
            CertRole::Slave => 2,
            CertRole::Auditor => 3,
        }
    }
}

/// The signed portion of a certificate.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CertificateBody {
    /// Monotonic serial number assigned by the issuer.
    pub serial: u64,
    /// Role granted to the subject.
    pub role: CertRole,
    /// Contact address ("ip:port" in the paper; any routable name here).
    pub subject_addr: String,
    /// The subject's verification key.
    pub subject_key: PublicKey,
    /// Issuance timestamp (simulation microseconds).
    pub issued_at_us: u64,
    /// Identifier of the content this certificate belongs to (hash of the
    /// content public key, as in self-certifying names \[5\]).
    pub content_id: Hash256,
    /// Shard of the content space this certificate is scoped to: the
    /// subject may only act (sequence writes, stamp digests, serve
    /// replicas) for this shard.  Unsharded deployments use shard 0, so
    /// the claim is always present and always checked.
    pub shard: u32,
}

impl CertificateBody {
    /// Canonical byte encoding of the body (what gets signed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.subject_addr.len());
        out.extend_from_slice(b"sdr/cert/v2");
        out.extend_from_slice(&self.serial.to_be_bytes());
        out.push(self.role.tag());
        out.extend_from_slice(&(self.subject_addr.len() as u32).to_be_bytes());
        out.extend_from_slice(self.subject_addr.as_bytes());
        let key = self.subject_key.encode();
        out.extend_from_slice(&(key.len() as u32).to_be_bytes());
        out.extend_from_slice(&key);
        out.extend_from_slice(&self.issued_at_us.to_be_bytes());
        out.extend_from_slice(self.content_id.as_ref());
        out.extend_from_slice(&self.shard.to_be_bytes());
        out
    }
}

/// A certificate: body plus the issuer's signature over its encoding.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Certificate {
    /// The signed statement.
    pub body: CertificateBody,
    /// Issuer signature over [`CertificateBody::encode`].
    pub signature: Signature,
}

impl Certificate {
    /// Issues a certificate by signing `body` with `issuer`.
    pub fn issue(body: CertificateBody, issuer: &mut dyn Signer) -> Result<Self, CryptoError> {
        let signature = issuer.sign(&body.encode())?;
        Ok(Certificate { body, signature })
    }

    /// Verifies the certificate against the issuer's public key.
    pub fn verify(&self, issuer_key: &PublicKey) -> Result<(), CryptoError> {
        issuer_key
            .verify(&self.body.encode(), &self.signature)
            .map_err(|_| CryptoError::InvalidCertificate("bad issuer signature"))
    }

    /// Verifies and additionally checks the expected role.
    pub fn verify_role(&self, issuer_key: &PublicKey, role: CertRole) -> Result<(), CryptoError> {
        self.verify(issuer_key)?;
        if self.body.role != role {
            return Err(CryptoError::InvalidCertificate("unexpected role"));
        }
        Ok(())
    }

    /// Verifies role *and* shard scope: a certificate issued for one
    /// shard must not authenticate a server for another shard's data.
    pub fn verify_scoped(
        &self,
        issuer_key: &PublicKey,
        role: CertRole,
        shard: u32,
    ) -> Result<(), CryptoError> {
        self.verify_role(issuer_key, role)?;
        if self.body.shard != shard {
            return Err(CryptoError::InvalidCertificate("wrong shard scope"));
        }
        Ok(())
    }

    /// Memoization key for a successful [`Certificate::verify_scoped`]
    /// check: it binds the issuer key, the expected role and shard, and
    /// the full signed body encoding.  The signature is deliberately
    /// excluded — the key identifies the *statement* that was verified,
    /// and any forged body hashes to a different key, so remembering
    /// "this key accepted this statement" is sound even if an attacker
    /// later replays the body with a mangled signature.
    pub fn scoped_cache_key(&self, issuer_key: &PublicKey, role: CertRole, shard: u32) -> Hash256 {
        Sha256::digest_parts(&[
            b"sdr/cert-cache/v1",
            &issuer_key.encode(),
            &[role.tag()],
            &shard.to_be_bytes(),
            &self.body.encode(),
        ])
    }
}

/// Derives a content identifier from the content public key, following the
/// self-certifying-name idea the paper cites (\[5\]).
pub fn content_id_for_key(content_key: &PublicKey) -> Hash256 {
    Sha256::digest_parts(&[b"sdr/content-id", &content_key.encode()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sign::HmacSigner;

    fn body(serial: u64, owner_key: &PublicKey) -> CertificateBody {
        CertificateBody {
            serial,
            role: CertRole::Master,
            subject_addr: "10.0.0.1:7000".to_string(),
            subject_key: HmacSigner::from_seed_label(serial, b"subject").public_key(),
            issued_at_us: 1_000,
            content_id: content_id_for_key(owner_key),
            shard: 0,
        }
    }

    #[test]
    fn issue_and_verify() {
        let mut owner = HmacSigner::from_seed_label(1, b"owner");
        let owner_pk = owner.public_key();
        let cert = Certificate::issue(body(1, &owner_pk), &mut owner).unwrap();
        cert.verify(&owner_pk).unwrap();
        cert.verify_role(&owner_pk, CertRole::Master).unwrap();
    }

    #[test]
    fn wrong_issuer_rejected() {
        let mut owner = HmacSigner::from_seed_label(1, b"owner");
        let mallory = HmacSigner::from_seed_label(2, b"mallory");
        let owner_pk = owner.public_key();
        let cert = Certificate::issue(body(1, &owner_pk), &mut owner).unwrap();
        assert!(cert.verify(&mallory.public_key()).is_err());
    }

    #[test]
    fn tampered_address_rejected() {
        let mut owner = HmacSigner::from_seed_label(1, b"owner");
        let owner_pk = owner.public_key();
        let mut cert = Certificate::issue(body(1, &owner_pk), &mut owner).unwrap();
        cert.body.subject_addr = "6.6.6.6:666".to_string();
        assert!(cert.verify(&owner_pk).is_err());
    }

    #[test]
    fn tampered_key_rejected() {
        let mut owner = HmacSigner::from_seed_label(1, b"owner");
        let owner_pk = owner.public_key();
        let mut cert = Certificate::issue(body(1, &owner_pk), &mut owner).unwrap();
        cert.body.subject_key = HmacSigner::from_seed_label(99, b"evil").public_key();
        assert!(cert.verify(&owner_pk).is_err());
    }

    #[test]
    fn role_check_enforced() {
        let mut owner = HmacSigner::from_seed_label(1, b"owner");
        let owner_pk = owner.public_key();
        let cert = Certificate::issue(body(1, &owner_pk), &mut owner).unwrap();
        assert_eq!(
            cert.verify_role(&owner_pk, CertRole::Slave),
            Err(CryptoError::InvalidCertificate("unexpected role"))
        );
    }

    #[test]
    fn shard_scope_is_signed_and_enforced() {
        let mut owner = HmacSigner::from_seed_label(1, b"owner");
        let owner_pk = owner.public_key();
        let mut b = body(1, &owner_pk);
        b.shard = 3;
        let cert = Certificate::issue(b, &mut owner).unwrap();
        cert.verify_scoped(&owner_pk, CertRole::Master, 3).unwrap();
        // Scope mismatch is rejected even though the signature holds.
        assert_eq!(
            cert.verify_scoped(&owner_pk, CertRole::Master, 0),
            Err(CryptoError::InvalidCertificate("wrong shard scope"))
        );
        // Rewriting the claim breaks the signature.
        let mut forged = cert;
        forged.body.shard = 0;
        assert!(forged.verify(&owner_pk).is_err());
    }

    #[test]
    fn scoped_cache_key_binds_statement_not_signature() {
        let mut owner = HmacSigner::from_seed_label(1, b"owner");
        let owner_pk = owner.public_key();
        let other_pk = HmacSigner::from_seed_label(2, b"other").public_key();
        let cert = Certificate::issue(body(1, &owner_pk), &mut owner).unwrap();
        let k = cert.scoped_cache_key(&owner_pk, CertRole::Master, 0);
        // Stable for the same statement, even with a mangled signature.
        let mut mangled = cert.clone();
        mangled.signature = owner.sign(b"junk").unwrap();
        assert_eq!(k, mangled.scoped_cache_key(&owner_pk, CertRole::Master, 0));
        // Any change to issuer, role, shard, or body moves the key.
        assert_ne!(k, cert.scoped_cache_key(&other_pk, CertRole::Master, 0));
        assert_ne!(k, cert.scoped_cache_key(&owner_pk, CertRole::Slave, 0));
        assert_ne!(k, cert.scoped_cache_key(&owner_pk, CertRole::Master, 1));
        let mut b2 = cert.clone();
        b2.body.serial = 2;
        assert_ne!(k, b2.scoped_cache_key(&owner_pk, CertRole::Master, 0));
    }

    #[test]
    fn content_id_stable_and_distinct() {
        let a = HmacSigner::from_seed_label(1, b"k").public_key();
        let b = HmacSigner::from_seed_label(2, b"k").public_key();
        assert_eq!(content_id_for_key(&a), content_id_for_key(&a));
        assert_ne!(content_id_for_key(&a), content_id_for_key(&b));
    }

    #[test]
    fn encoding_is_injective_on_fields() {
        let owner_pk = HmacSigner::from_seed_label(1, b"owner").public_key();
        let b1 = body(1, &owner_pk);
        let mut b2 = b1.clone();
        b2.serial = 2;
        assert_ne!(b1.encode(), b2.encode());
        let mut b3 = b1.clone();
        b3.issued_at_us += 1;
        assert_ne!(b1.encode(), b3.encode());
    }
}
