//! Reliable total-order broadcast for the trusted master set.
//!
//! The paper assumes (Section 3): "masters \[are\] fully connected to each
//! other through secure communication links, and implement a reliable,
//! total-ordering, broadcast protocol that can tolerate benign
//! (non-malicious) server failures.  The broadcast protocol itself is
//! outside the scope of this paper; a good choice could be for example the
//! protocol described in \[8\]" — Kaashoek et al.'s sequencer-based protocol.
//! "Through the same broadcast protocol, the masters also elect one of them
//! to function as an auditor."
//!
//! This crate implements that substrate:
//!
//! * [`engine::TotalOrder`] — a **sans-io** protocol state machine: a
//!   fixed-at-construction group of members, one of which (the lowest
//!   ranked in the current view) acts as *sequencer*.  Publishers send to
//!   the sequencer, which assigns sequence numbers and re-broadcasts;
//!   members deliver strictly in sequence order, negative-acknowledge
//!   gaps, and the sequencer retransmits from its log.
//! * [`view::View`] — membership views.  Heartbeats detect benign crashes;
//!   the lowest surviving member runs a view change, reconciling logs with
//!   every survivor before installing the new view.  Election falls out of
//!   the view deterministically: the *sequencer* is the lowest surviving
//!   rank and the *auditor* the highest (matching the paper's "elect one
//!   of them to function as an auditor").
//!
//! Being sans-io, the engine returns [`engine::Action`]s (send / deliver /
//! view-installed) instead of doing I/O, so `sdr-core` embeds it inside
//! simulated master processes and unit tests drive it directly.
//!
//! Fault model: crash-stop (benign) failures, including the sequencer.
//! Masters are trusted, so Byzantine behaviour is out of scope by the
//! paper's own system model.  Data-plane messages (publish/ordered/nack)
//! tolerate arbitrary loss and reordering via retransmission; the
//! membership control plane (heartbeats, view changes) is assumed
//! reliable, matching the paper's "fully connected … through secure
//! communication links" masters.  False suspicion is healed: an excluded
//! member that is demonstrably alive is re-admitted by the sequencer, and
//! at-most-once delivery per publish is preserved across such view
//! changes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod view;

pub use engine::{Action, TobConfig, TobMessage, TotalOrder};
pub use view::{MemberId, View};
