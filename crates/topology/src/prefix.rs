//! IPv4 prefixes and longest-prefix-match helpers.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An IPv4 prefix (`address/len`).
///
/// The address is stored in canonical form: all bits below the prefix length
/// are zero. Construction through [`Prefix::new`] enforces this.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    bits: u32,
    len: u8,
}

impl Prefix {
    /// Creates a prefix, masking the address down to `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} out of range");
        let bits = u32::from(addr) & Self::mask(len);
        Prefix { bits, len }
    }

    /// The canonical network address of this prefix.
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.bits)
    }

    /// The prefix length in bits.
    #[allow(clippy::len_without_is_empty)] // a mask width, not a container
    pub fn len(&self) -> u8 {
        self.len
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// Does this prefix contain the given address?
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        (u32::from(addr) & Self::mask(self.len)) == self.bits
    }

    /// Does this prefix fully contain (or equal) `other`?
    pub fn covers(&self, other: &Prefix) -> bool {
        other.len >= self.len && (other.bits & Self::mask(self.len)) == self.bits
    }

    /// Returns the `i`-th host address inside the prefix.
    ///
    /// # Panics
    ///
    /// Panics if `i` does not fit in the host part.
    pub fn host(&self, i: u32) -> Ipv4Addr {
        let host_bits = 32 - self.len;
        assert!(
            host_bits == 32 || u64::from(i) < (1u64 << host_bits),
            "host index {i} out of range for /{}",
            self.len
        );
        Ipv4Addr::from(self.bits | i)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

/// Error returned when parsing a [`Prefix`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePrefixError(String);

impl fmt::Display for ParsePrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix: {}", self.0)
    }
}

impl std::error::Error for ParsePrefixError {}

impl FromStr for Prefix {
    type Err = ParsePrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| ParsePrefixError(format!("missing '/' in {s:?}")))?;
        let addr: Ipv4Addr = addr
            .parse()
            .map_err(|e| ParsePrefixError(format!("{s:?}: {e}")))?;
        let len: u8 = len
            .parse()
            .map_err(|e| ParsePrefixError(format!("{s:?}: {e}")))?;
        if len > 32 {
            return Err(ParsePrefixError(format!("{s:?}: length > 32")));
        }
        Ok(Prefix::new(addr, len))
    }
}

/// A longest-prefix-match table mapping prefixes to opaque values.
///
/// This is a simple sorted-scan implementation: the tables in this project
/// hold at most a few hundred prefixes, so an O(n) match keeps the code
/// obviously correct without a trie.
#[derive(Clone, Debug, Default)]
pub struct PrefixTable<T> {
    /// Entries sorted by descending prefix length so the first match wins.
    entries: Vec<(Prefix, T)>,
}

impl<T> PrefixTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        PrefixTable {
            entries: Vec::new(),
        }
    }

    /// Inserts or replaces the value for `prefix`.
    pub fn insert(&mut self, prefix: Prefix, value: T) {
        match self.entries.iter_mut().find(|(p, _)| *p == prefix) {
            Some(slot) => slot.1 = value,
            None => {
                let pos = self
                    .entries
                    .partition_point(|(p, _)| p.len() >= prefix.len());
                self.entries.insert(pos, (prefix, value));
            }
        }
    }

    /// Removes the entry for exactly `prefix`, returning its value.
    pub fn remove(&mut self, prefix: &Prefix) -> Option<T> {
        let pos = self.entries.iter().position(|(p, _)| p == prefix)?;
        Some(self.entries.remove(pos).1)
    }

    /// Longest-prefix match for `addr`.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<(&Prefix, &T)> {
        self.entries
            .iter()
            .find(|(p, _)| p.contains(addr))
            .map(|(p, t)| (p, t))
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: &Prefix) -> Option<&T> {
        self.entries
            .iter()
            .find(|(p, _)| p == prefix)
            .map(|(_, t)| t)
    }

    /// Iterates over all entries (most-specific first).
    pub fn iter(&self) -> impl Iterator<Item = (&Prefix, &T)> {
        self.entries.iter().map(|(p, t)| (p, t))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn new_masks_host_bits() {
        let pre = Prefix::new(Ipv4Addr::new(10, 1, 2, 3), 16);
        assert_eq!(pre.network(), Ipv4Addr::new(10, 1, 0, 0));
        assert_eq!(pre.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn contains_respects_mask() {
        let pre = p("10.1.0.0/16");
        assert!(pre.contains(Ipv4Addr::new(10, 1, 255, 255)));
        assert!(!pre.contains(Ipv4Addr::new(10, 2, 0, 1)));
    }

    #[test]
    fn default_route_contains_everything() {
        let pre = p("0.0.0.0/0");
        assert_eq!(pre.len(), 0);
        assert!(pre.contains(Ipv4Addr::new(255, 255, 255, 255)));
    }

    #[test]
    fn covers_is_reflexive_and_ordered() {
        let wide = p("10.0.0.0/8");
        let narrow = p("10.1.0.0/16");
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
        assert!(wide.covers(&wide));
    }

    #[test]
    fn host_addresses() {
        let pre = p("10.1.0.0/16");
        assert_eq!(pre.host(1), Ipv4Addr::new(10, 1, 0, 1));
        assert_eq!(pre.host(257), Ipv4Addr::new(10, 1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn host_out_of_range_panics() {
        p("10.1.2.0/30").host(4);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("10.0.0.0".parse::<Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Prefix>().is_err());
        assert!("x/8".parse::<Prefix>().is_err());
    }

    #[test]
    fn table_longest_match_wins() {
        let mut t = PrefixTable::new();
        t.insert(p("10.0.0.0/8"), "coarse");
        t.insert(p("10.1.0.0/16"), "fine");
        let (pre, v) = t.lookup(Ipv4Addr::new(10, 1, 2, 3)).unwrap();
        assert_eq!(*v, "fine");
        assert_eq!(pre.len(), 16);
        let (_, v) = t.lookup(Ipv4Addr::new(10, 9, 0, 1)).unwrap();
        assert_eq!(*v, "coarse");
        assert!(t.lookup(Ipv4Addr::new(11, 0, 0, 1)).is_none());
    }

    #[test]
    fn table_insert_replaces() {
        let mut t = PrefixTable::new();
        t.insert(p("10.0.0.0/8"), 1);
        t.insert(p("10.0.0.0/8"), 2);
        assert_eq!(t.len(), 1);
        assert_eq!(*t.get(&p("10.0.0.0/8")).unwrap(), 2);
    }

    #[test]
    fn table_remove() {
        let mut t = PrefixTable::new();
        t.insert(p("10.0.0.0/8"), 1);
        assert_eq!(t.remove(&p("10.0.0.0/8")), Some(1));
        assert!(t.is_empty());
        assert_eq!(t.remove(&p("10.0.0.0/8")), None);
    }
}
