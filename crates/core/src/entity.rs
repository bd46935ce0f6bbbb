//! Entities: the atomically-accessed data items of the model.
//!
//! The paper deliberately leaves entities uninterpreted ("they can be files,
//! records, data items, physical disk blocks, etc."); we only need stable,
//! cheap identifiers.  Entities are interned: an [`EntityInterner`] maps
//! human-readable names (`"x"`, `"y"`, `"account_17"`) to dense [`EntityId`]s.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A dense identifier for a database entity.
///
/// The `u32` payload is an index into the interner that produced it (or is
/// chosen directly by callers that do not need names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EntityId(pub u32);

impl EntityId {
    /// Returns the raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EntityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Small ids get the paper's letters x, y, z, u, v, w...; larger ids a
        // generic `e<N>` name.  This is only cosmetic; equality is by id.
        const LETTERS: [&str; 6] = ["x", "y", "z", "u", "v", "w"];
        if (self.0 as usize) < LETTERS.len() {
            write!(f, "{}", LETTERS[self.0 as usize])
        } else {
            write!(f, "e{}", self.0)
        }
    }
}

/// An interner assigning dense [`EntityId`]s to entity names.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EntityInterner {
    names: Vec<String>,
    #[serde(skip)]
    by_name: HashMap<String, EntityId>,
}

impl EntityInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id (existing or fresh).
    pub(crate) fn intern(&mut self, name: &str) -> EntityId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = EntityId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up an already-interned name.
    pub fn get(&self, name: &str) -> Option<EntityId> {
        self.by_name.get(name).copied()
    }

    /// Returns the name of `id`, if it was produced by this interner.
    pub fn name(&self, id: EntityId) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }

    /// Number of interned entities.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no entity has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (EntityId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (EntityId(i as u32), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = EntityInterner::new();
        let x = i.intern("x");
        let y = i.intern("y");
        assert_ne!(x, y);
        assert_eq!(i.intern("x"), x);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn name_round_trip() {
        let mut i = EntityInterner::new();
        let a = i.intern("account");
        assert_eq!(i.name(a), Some("account"));
        assert_eq!(i.get("account"), Some(a));
        assert_eq!(i.get("missing"), None);
        assert_eq!(i.name(EntityId(99)), None);
    }

    #[test]
    fn display_uses_paper_letters_for_small_ids() {
        assert_eq!(EntityId(0).to_string(), "x");
        assert_eq!(EntityId(1).to_string(), "y");
        assert_eq!(EntityId(2).to_string(), "z");
        assert_eq!(EntityId(10).to_string(), "e10");
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut i = EntityInterner::new();
        i.intern("x");
        i.intern("y");
        i.intern("z");
        let names: Vec<&str> = i.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["x", "y", "z"]);
    }

    #[test]
    fn empty_interner() {
        let i = EntityInterner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }
}
