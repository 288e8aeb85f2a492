//! # midas-mac
//!
//! The paper's DAS-aware MAC mechanisms (§3.2) for the MIDAS (CoNEXT'14)
//! reproduction:
//!
//! * [`timing`] — the 802.11 timing the mechanisms need: slot, SIFS and
//!   DIFS, and the default MU-MIMO TXOP length.
//! * [`carrier_sense`] — *per-antenna* carrier sensing: MIDAS keeps one
//!   busy-until time per distributed antenna (§3.2.2), so it can see that
//!   some antennas are free while others are busy.
//! * [`antenna_select`] — opportunistic antenna selection: wait up to one
//!   DIFS for antennas whose reservation is about to expire (§3.2.3).
//! * [`tagging`] — virtual packet tagging: each client's packets are tagged
//!   with its strongest antennas (§3.2.4).
//! * [`drr`] + [`client_select`] — deficit-round-robin fairness and the
//!   antenna-specific, fairness-driven client selection (§3.2.5).
//!
//! The round-level network simulator (`midas-net`) calls [`tagging`],
//! [`drr`], [`client_select`] and [`timing`] every round; the
//! `ablation_antenna_wait` experiment (`midas`) drives [`carrier_sense`]
//! and [`antenna_select`].  The crate is transport-agnostic: it never
//! touches the channel model directly, it only consumes per-antenna
//! busy/idle observations and RSSI-based antenna preferences that the
//! network layer derives from `midas-channel`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod antenna_select;
pub mod carrier_sense;
pub mod client_select;
pub mod drr;
pub mod tagging;
pub mod timing;
