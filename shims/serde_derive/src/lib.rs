//! No-op `#[derive(Serialize)]` / `#[derive(Deserialize)]` macros.
//!
//! No workspace source derives these any more: nothing serializes at
//! runtime, and the derives were deleted from every crate.  The shim stays
//! only because `apps`, `cluster` and `core` still list `serde` in their
//! manifests; it goes with those three lines.  The derives accept serde's
//! syntax (including `#[serde(...)]` field attributes) and expand to nothing.

use proc_macro::TokenStream;

/// Accepts `#[derive(Serialize)]` (and `#[serde(...)]` attributes) and
/// expands to nothing.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Accepts `#[derive(Deserialize)]` (and `#[serde(...)]` attributes) and
/// expands to nothing.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
