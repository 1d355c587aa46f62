//! A xenstored model: the hierarchical configuration store.
//!
//! Xen's toolstack publishes domain metadata under `/local/domain/<id>/...`
//! and device backends watch those paths. The store is *VM Management
//! State*: the target hypervisor re-registers every adopted domain rather
//! than translating the tree.

use std::collections::BTreeMap;

/// A hierarchical key/value store with `/`-separated paths.
#[derive(Debug, Clone, Default)]
pub(crate) struct XenStore {
    entries: BTreeMap<String, String>,
}

impl XenStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        XenStore::default()
    }

    /// Writes a value, creating parent directories implicitly.
    pub fn write(&mut self, path: &str, value: impl Into<String>) {
        self.entries.insert(normalize(path), value.into());
    }

    /// Removes a path and everything beneath it. Returns the number of
    /// entries removed.
    pub(crate) fn rm(&mut self, path: &str) -> usize {
        let p = normalize(path);
        let prefix = format!("{p}/");
        let keys: Vec<String> = self
            .entries
            .keys()
            .filter(|k| **k == p || k.starts_with(&prefix))
            .cloned()
            .collect();
        for k in &keys {
            self.entries.remove(k);
        }
        keys.len()
    }

    /// Publishes the standard paths for a domain.
    pub(crate) fn register_domain(&mut self, domid: u32, name: &str, memory_kb: u64, vcpus: u32) {
        let base = format!("/local/domain/{domid}");
        self.write(&format!("{base}/name"), name);
        self.write(&format!("{base}/memory/target"), memory_kb.to_string());
        self.write(&format!("{base}/cpu/count"), vcpus.to_string());
        self.write(&format!("{base}/state"), "running");
    }

    /// Removes a domain's subtree.
    pub(crate) fn unregister_domain(&mut self, domid: u32) -> usize {
        self.rm(&format!("/local/domain/{domid}"))
    }

    /// Approximate footprint in bytes.
    pub(crate) fn footprint_bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|(k, v)| (k.len() + v.len() + 32) as u64)
            .sum()
    }
}

fn normalize(path: &str) -> String {
    let mut p = path.trim().trim_end_matches('/').to_string();
    if !p.starts_with('/') {
        p.insert(0, '/');
    }
    p.trim_start_matches('/').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl XenStore {
        /// Reads a value.
        pub(crate) fn read(&self, path: &str) -> Option<&str> {
            self.entries.get(&normalize(path)).map(String::as_str)
        }

        /// True if the store is empty.
        pub(crate) fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }
    }

    #[test]
    fn write_read_rm() {
        let mut s = XenStore::new();
        s.write("/local/domain/1/name", "vm0");
        assert_eq!(s.read("/local/domain/1/name"), Some("vm0"));
        assert_eq!(s.read("local/domain/1/name"), Some("vm0"));
        assert_eq!(s.rm("/local/domain/1"), 1);
        assert_eq!(s.read("/local/domain/1/name"), None);
    }

    #[test]
    fn register_unregister_domain() {
        let mut s = XenStore::new();
        s.register_domain(7, "web", 4 << 20, 4);
        assert_eq!(s.read("/local/domain/7/name"), Some("web"));
        assert_eq!(s.read("/local/domain/7/cpu/count"), Some("4"));
        let removed = s.unregister_domain(7);
        assert_eq!(removed, 4);
        assert!(s.is_empty());
    }

    #[test]
    fn rm_is_subtree_scoped() {
        let mut s = XenStore::new();
        s.write("/a/b", "1");
        s.write("/a/bc", "2"); // Not under /a/b.
        assert_eq!(s.rm("/a/b"), 1);
        assert_eq!(s.read("/a/bc"), Some("2"));
    }
}
