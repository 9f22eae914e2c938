//! Offline stand-in for the `serde` facade.
//!
//! Re-exports the no-op [`Serialize`] / [`Deserialize`] derives.  No trait
//! machinery is provided because nothing in this workspace serializes at
//! runtime, and no workspace source uses the derives any more: the crate is
//! kept only for the manifest entries that still name it.

#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};
