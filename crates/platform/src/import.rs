//! Importing measured timing tables.
//!
//! Real deployments benchmark their clusters the way the paper did
//! ("we benchmarked the execution time of the application on numerous
//! clusters of Grid'5000") and keep the results in flat files. This
//! module parses a minimal text format into [`Cluster`]s:
//!
//! ```text
//! # anything after a hash is a comment
//! cluster sagittaire 64      # name and processor count
//! main 4 5462                # T[G] in seconds, one line per G
//! main 5 2942
//! …                          # all of 4..=11 must be present
//! main 11 1262
//! post 180                   # TP in seconds
//! ```
//!
//! Several `cluster` stanzas per file build a whole [`Grid`]. Parsing
//! is strict: unknown keywords, missing entries and non-monotone
//! tables are errors, so a corrupted benchmark file cannot silently
//! skew an experiment.

use oa_workflow::moldable::MoldableSpec;
use oa_workflow::task::NUM_GROUP_SIZES;

use crate::cluster::{check_procs, Cluster, ProcsError};
use crate::grid::Grid;
use crate::timing::{TimingError, TimingTable};

/// Parse errors with line numbers.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportError {
    /// Malformed line.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Human-readable detail.
        message: String,
    },
    /// `main`/`post` before any `cluster` stanza.
    NoCluster {
        /// 1-based line number.
        line: usize,
    },
    /// A stanza is missing entries.
    Incomplete {
        /// Cluster concerned.
        cluster: String,
        /// What the stanza lacks.
        missing: String,
    },
    /// The stanza cannot make a cluster: its table is invalid
    /// (non-positive, non-monotone…) or its processor count fails
    /// [`check_procs`].
    BadTable {
        /// Cluster concerned.
        cluster: String,
        /// What is wrong.
        problem: StanzaProblem,
    },
    /// No stanza at all.
    Empty,
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            ImportError::NoCluster { line } => {
                write!(f, "line {line}: entry before any `cluster` stanza")
            }
            ImportError::Incomplete { cluster, missing } => {
                write!(f, "cluster {cluster:?}: missing {missing}")
            }
            ImportError::BadTable { cluster, problem } => {
                write!(f, "cluster {cluster:?}: {problem}")
            }
            ImportError::Empty => write!(f, "no cluster stanza found"),
        }
    }
}

impl std::error::Error for ImportError {}

/// Why a complete stanza cannot make a cluster.
#[derive(Debug, Clone, PartialEq)]
pub enum StanzaProblem {
    /// The timing table is invalid.
    Table(TimingError),
    /// The processor count is out of range.
    Procs(ProcsError),
}

impl std::fmt::Display for StanzaProblem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StanzaProblem::Table(e) => write!(f, "{e}"),
            StanzaProblem::Procs(e) => write!(f, "{e}"),
        }
    }
}

#[derive(Default)]
struct Stanza {
    name: String,
    resources: u32,
    main: [Option<f64>; NUM_GROUP_SIZES],
    post: Option<f64>,
}

impl Stanza {
    fn finish(self) -> Result<Cluster, ImportError> {
        let spec = MoldableSpec::pcr();
        let mut main = [0.0; NUM_GROUP_SIZES];
        for (i, slot) in self.main.iter().enumerate() {
            main[i] = slot.ok_or_else(|| ImportError::Incomplete {
                cluster: self.name.clone(),
                missing: format!("main {}", spec.allocation_at(i).expect("in range")),
            })?;
        }
        let post = self.post.ok_or_else(|| ImportError::Incomplete {
            cluster: self.name.clone(),
            missing: "post".into(),
        })?;
        let bad = |problem| ImportError::BadTable {
            cluster: self.name.clone(),
            problem,
        };
        let timing = TimingTable::new(main, post).map_err(|e| bad(StanzaProblem::Table(e)))?;
        check_procs(self.resources).map_err(|e| bad(StanzaProblem::Procs(e)))?;
        Ok(Cluster::new(self.name, self.resources, timing))
    }
}

/// Parses a benchmark file's text into a grid.
pub fn parse_grid(text: &str) -> Result<Grid, ImportError> {
    let spec = MoldableSpec::pcr();
    let mut grid = Grid::new();
    let mut current: Option<Stanza> = None;

    for (no, raw) in text.lines().enumerate() {
        let line = no + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut words = content.split_whitespace();
        let keyword = words.next().expect("non-empty after trim");
        let rest: Vec<&str> = words.collect();
        let syntax = |message: String| ImportError::Syntax { line, message };

        match keyword {
            "cluster" => {
                if let Some(st) = current.take() {
                    grid.add(st.finish()?);
                }
                let [name, resources] = rest[..] else {
                    return Err(syntax("expected `cluster <name> <resources>`".into()));
                };
                let resources: u32 = resources
                    .parse()
                    .map_err(|_| syntax(format!("bad resource count {resources:?}")))?;
                current = Some(Stanza {
                    name: name.to_string(),
                    resources,
                    ..Stanza::default()
                });
            }
            "main" => {
                let st = current.as_mut().ok_or(ImportError::NoCluster { line })?;
                let [g, secs] = rest[..] else {
                    return Err(syntax("expected `main <G> <seconds>`".into()));
                };
                let g: u32 = g
                    .parse()
                    .map_err(|_| syntax(format!("bad group size {g:?}")))?;
                let i = spec
                    .index_of(g)
                    .ok_or_else(|| syntax(format!("group size {g} outside 4..=11")))?;
                let secs: f64 = secs
                    .parse()
                    .map_err(|_| syntax(format!("bad duration {secs:?}")))?;
                if st.main[i].replace(secs).is_some() {
                    return Err(syntax(format!("duplicate `main {g}`")));
                }
            }
            "post" => {
                let st = current.as_mut().ok_or(ImportError::NoCluster { line })?;
                let [secs] = rest[..] else {
                    return Err(syntax("expected `post <seconds>`".into()));
                };
                let secs: f64 = secs
                    .parse()
                    .map_err(|_| syntax(format!("bad duration {secs:?}")))?;
                if st.post.replace(secs).is_some() {
                    return Err(syntax("duplicate `post`".into()));
                }
            }
            other => return Err(syntax(format!("unknown keyword {other:?}"))),
        }
    }
    if let Some(st) = current.take() {
        grid.add(st.finish()?);
    }
    if grid.is_empty() {
        return Err(ImportError::Empty);
    }
    Ok(grid)
}

/// Renders a grid back to the benchmark-file format (round-trips with
/// [`parse_grid`]).
pub fn render_grid(grid: &Grid) -> String {
    let mut out = String::new();
    for (_, c) in grid.iter() {
        out.push_str(&format!("cluster {} {}\n", c.name, c.resources));
        for g in MoldableSpec::pcr().allocations() {
            out.push_str(&format!("main {g} {}\n", c.timing.main_secs(g)));
        }
        out.push_str(&format!("post {}\n\n", c.timing.post_secs()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::benchmark_grid;

    fn sample() -> String {
        let mut s = String::from("# measured on the testbed\ncluster alpha 53\n");
        for (g, t) in (4..=11).zip([
            5462.0, 2942.0, 2128.7, 1742.0, 1526.0, 1395.3, 1313.4, 1262.0,
        ]) {
            s.push_str(&format!("main {g} {t}\n"));
        }
        s.push_str("post 180\n");
        s
    }

    #[test]
    fn parses_a_single_cluster() {
        let g = parse_grid(&sample()).unwrap();
        assert_eq!(g.len(), 1);
        let c = &g.clusters()[0];
        assert_eq!(c.name, "alpha");
        assert_eq!(c.resources, 53);
        assert_eq!(c.timing.main_secs(11), 1262.0);
        assert_eq!(c.timing.post_secs(), 180.0);
    }

    #[test]
    fn round_trips_the_preset_grid() {
        let grid = benchmark_grid(64);
        let text = render_grid(&grid);
        let back = parse_grid(&text).unwrap();
        assert_eq!(back.len(), grid.len());
        for ((_, a), (_, b)) in grid.iter().zip(back.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.resources, b.resources);
            for g in 4..=11 {
                assert!((a.timing.main_secs(g) - b.timing.main_secs(g)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = format!("\n# header\n\n{}# trailer\n", sample());
        assert!(parse_grid(&text).is_ok());
    }

    #[test]
    fn error_cases() {
        assert_eq!(parse_grid(""), Err(ImportError::Empty));
        assert!(matches!(
            parse_grid("main 4 100\n"),
            Err(ImportError::NoCluster { line: 1 })
        ));
        assert!(matches!(
            parse_grid("cluster x\n"),
            Err(ImportError::Syntax { line: 1, .. })
        ));
        assert!(matches!(
            parse_grid("cluster x 10\nmain 3 5\n"),
            Err(ImportError::Syntax { line: 2, .. })
        ));
        assert!(matches!(
            parse_grid("cluster x 10\nmain 4 5\nmain 4 6\n"),
            Err(ImportError::Syntax { line: 3, .. })
        ));
        assert!(matches!(
            parse_grid("cluster x 10\nfrobnicate 1\n"),
            Err(ImportError::Syntax { line: 2, .. })
        ));
        // Missing entries.
        let e = parse_grid("cluster x 10\nmain 4 5\npost 1\n").unwrap_err();
        assert!(matches!(e, ImportError::Incomplete { .. }), "{e:?}");
        // Non-monotone table.
        let mut bad = String::from("cluster x 10\n");
        for g in 4..=11 {
            bad.push_str(&format!("main {g} {}\n", g as f64)); // increasing!
        }
        bad.push_str("post 1\n");
        assert!(matches!(
            parse_grid(&bad),
            Err(ImportError::BadTable { .. })
        ));
        // Too few processors.
        let tiny = sample().replace("cluster alpha 53", "cluster alpha 2");
        assert!(matches!(
            parse_grid(&tiny),
            Err(ImportError::BadTable { .. })
        ));
    }

    #[test]
    fn multiple_stanzas() {
        let second = sample().replace("cluster alpha 53", "cluster beta 20");
        let two = format!("{}\n{}", sample(), second);
        let g = parse_grid(&two).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.clusters()[1].name, "beta");
        assert_eq!(g.clusters()[1].resources, 20);
    }
}
