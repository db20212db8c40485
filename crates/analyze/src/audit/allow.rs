//! The per-rule allowlist that keeps justified hazards legal.
//!
//! Some findings are correct code: the benchmark harness *must* read
//! the wall clock, the audit walker must list directories. Instead of
//! weakening the rules, such uses are recorded in an allowlist file
//! (one entry per line):
//!
//! ```text
//! # rule  path-prefix                      justification…
//! ND005   crates/analyze/src/audit/mod.rs  entries are sorted before use
//! ```
//!
//! An entry suppresses every finding of its rule whose file path
//! starts with the given prefix — so a directory prefix covers a
//! subtree. Entries are audited right back: one that suppresses
//! nothing raises `ND007` (stale allowlist entry), so the file can
//! only shrink when the code it excuses is cleaned up.

/// One parsed allowlist line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule code the entry suppresses (`ND004`, …).
    pub code: String,
    /// Path prefix (workspace-relative, `/`-separated) it applies to.
    pub path: String,
    /// Free-text justification (the rest of the line).
    pub reason: String,
    /// 1-based line number in the allowlist file.
    pub line: u32,
}

/// A parsed allowlist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// The empty allowlist (suppresses nothing).
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// Parses the `rule path justification…` line format. Blank lines
    /// and `#` comments are skipped. A line with fewer than two fields
    /// or without a justification is an error — an unexplained
    /// suppression defeats the point of the file.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_whitespace();
            let code = fields.next().unwrap_or_default();
            let path = fields.next().unwrap_or_default();
            let reason = fields.collect::<Vec<_>>().join(" ");
            if code.is_empty() || path.is_empty() || reason.is_empty() {
                return Err(format!(
                    "allowlist line {}: expected `RULE PATH JUSTIFICATION`, got {raw:?}",
                    idx + 1
                ));
            }
            entries.push(AllowEntry {
                code: code.to_string(),
                path: path.to_string(),
                reason,
                line: u32::try_from(idx + 1).unwrap_or(u32::MAX),
            });
        }
        Ok(Self { entries })
    }

    /// Index of the first entry suppressing `code` at `path`, if any.
    #[must_use]
    pub fn matches(&self, code: &str, path: &str) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.code == code && path.starts_with(e.path.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_skips_comments() {
        let text = "# header\n\nND004 crates/middleware/src/deploy.rs servers are threads\n\
                    ND002 crates/bench timing is the product\n";
        let a = Allowlist::parse(text).unwrap();
        assert_eq!(a.entries.len(), 2);
        assert_eq!(a.entries[0].code, "ND004");
        assert_eq!(a.entries[0].line, 3);
        assert_eq!(a.entries[1].path, "crates/bench");
        assert!(a.entries[1].reason.contains("product"));
    }

    #[test]
    fn prefix_matching_covers_subtrees() {
        let a = Allowlist::parse("ND004 crates/middleware threaded by design\n").unwrap();
        assert_eq!(a.matches("ND004", "crates/middleware/src/sed.rs"), Some(0));
        assert_eq!(a.matches("ND004", "crates/sim/src/engine.rs"), None);
        assert_eq!(a.matches("ND001", "crates/middleware/src/sed.rs"), None);
    }

    #[test]
    fn rejects_unjustified_lines() {
        assert!(Allowlist::parse("ND004 crates/middleware\n").is_err());
        assert!(Allowlist::parse("ND004\n").is_err());
        assert!(Allowlist::parse("").unwrap().entries.is_empty());
    }
}
