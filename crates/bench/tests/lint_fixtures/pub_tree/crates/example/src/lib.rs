//! Fixture for `xai-lint --list-pub`: seven public items (one of each
//! counted kind), and every look-alike the count must skip.

pub fn counted_fn() {}
pub struct Counted {
    pub field_is_not_an_item: u32,
}
pub enum CountedEnum {}
pub trait CountedTrait {}
pub type CountedAlias = u32;
pub const COUNTED: u32 = 1;
pub static COUNTED_STATIC: u32 = 2;

pub(crate) fn restricted() {}
pub(super) struct AlsoRestricted;
pub mod not_an_item {}
pub use std::fmt;
const PRIVATE: &str = "pub fn in_a_string() {}";
// pub fn in_a_comment() {}

#[cfg(test)]
mod tests {
    pub fn test_only() {}
}
