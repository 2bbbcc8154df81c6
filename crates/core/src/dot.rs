//! Graphviz (DOT) export of DAIGs — renders the diagrams of the paper's
//! Figs. 3 and 4: reference cells as nodes, computation hyperedges as
//! labelled fan-ins.
//!
//! Cells containing program syntax are drawn as rounded boxes (like the
//! statement boxes of Fig. 3), abstract-state cells as plain boxes (filled
//! grey when they currently hold a value, white when empty/dirty), and
//! each computation as a small circle labelled with its function symbol
//! (`⟦·⟧♯`, `⊔`, `∇`, `fix`) whose in-edges are numbered in argument
//! order.
//!
//! The output is deterministic (names are emitted in sorted order), so it
//! is usable in golden tests and diffs, and it round-trips the dynamic
//! story: exporting before and after a query shows cells filling in, and
//! after an edit shows the dirtied cone (cells reverting to white) and fix
//! edges rolling back — Fig. 4's three panels as three successive exports.
//!
//! ```
//! use dai_core::analysis::FuncAnalysis;
//! use dai_core::dot::{to_dot, DotOptions};
//! use dai_domains::IntervalDomain;
//!
//! let program = dai_lang::parse_program(
//!     "function f() { var x = 1; return x; }",
//! )?;
//! let cfg = dai_lang::cfg::lower_program(&program)?.cfgs()[0].clone();
//! let analysis = FuncAnalysis::new(cfg, IntervalDomain::top());
//! let dot = to_dot(analysis.daig(), &DotOptions::default());
//! assert!(dot.starts_with("digraph daig {"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::graph::{Daig, Func, Value};
use crate::name::Name;
use dai_domains::AbstractDomain;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Rendering options for [`to_dot`].
#[derive(Debug, Clone)]
pub struct DotOptions {
    /// Include the cell's current value in its label (truncated to
    /// [`DotOptions::max_value_chars`]).
    pub show_values: bool,
    /// Truncation limit for rendered values.
    pub max_value_chars: usize,
    /// Graph title (rendered as a label).
    pub title: Option<String>,
}

impl Default for DotOptions {
    fn default() -> Self {
        DotOptions {
            show_values: true,
            max_value_chars: 48,
            title: None,
        }
    }
}

/// Escapes a string for use inside a DOT double-quoted label.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Truncates `s` to at most `limit` characters, appending `…` when cut.
fn truncate(s: &str, limit: usize) -> String {
    if s.chars().count() <= limit {
        return s.to_string();
    }
    let mut out: String = s.chars().take(limit.saturating_sub(1)).collect();
    out.push('…');
    out
}

/// The display glyph for a computation's function symbol.
fn func_glyph(f: Func) -> &'static str {
    match f {
        Func::Transfer => "⟦·⟧♯",
        Func::Join => "⊔",
        Func::Widen => "∇",
        Func::Fix => "fix",
        Func::AtFix => "at-fix",
    }
}

/// Renders `daig` as a Graphviz digraph.
///
/// Node identities are `c0, c1, …` for cells (in sorted-name order) and
/// `f0, f1, …` for computations (in sorted-destination order), so output
/// is stable for a given graph.
pub fn to_dot<D: AbstractDomain>(daig: &Daig<D>, opts: &DotOptions) -> String {
    let mut names: Vec<&Name> = daig.names().collect();
    names.sort();
    let ids: HashMap<&Name, usize> = names.iter().enumerate().map(|(i, n)| (*n, i)).collect();

    let mut out = String::from("digraph daig {\n");
    out.push_str("  rankdir=TB;\n  node [fontname=\"monospace\"];\n");
    if let Some(title) = &opts.title {
        let _ = writeln!(out, "  label=\"{}\";\n  labelloc=t;", escape(title));
    }

    for n in &names {
        let id = ids[*n];
        let mut label = n.to_string();
        let (shape, fill) = match daig.value(n) {
            Some(Value::Stmt(s)) => {
                if opts.show_values {
                    let _ = write!(
                        label,
                        "\n{}",
                        truncate(&s.to_string(), opts.max_value_chars)
                    );
                }
                ("box", "style=\"rounded,filled\" fillcolor=\"#fff7e0\"")
            }
            Some(Value::State(d)) => {
                if opts.show_values {
                    let _ = write!(
                        label,
                        "\n{}",
                        truncate(&d.to_string(), opts.max_value_chars)
                    );
                }
                ("box", "style=filled fillcolor=\"#e0e8f0\"")
            }
            None => ("box", "style=solid"),
        };
        let _ = writeln!(
            out,
            "  c{id} [shape={shape} {fill} label=\"{}\"];",
            escape(&label)
        );
    }

    // Computations: a point node per hyperedge, sorted by destination.
    let mut dests: Vec<&Name> = names
        .iter()
        .copied()
        .filter(|n| daig.comp(n).is_some())
        .collect();
    dests.sort();
    for (fi, dest) in dests.iter().enumerate() {
        let comp = daig.comp(dest).expect("filtered");
        let _ = writeln!(
            out,
            "  f{fi} [shape=circle width=0.3 fixedsize=true label=\"{}\"];",
            escape(func_glyph(comp.func))
        );
        for (argi, src) in comp.srcs.iter().enumerate() {
            let sid = ids
                .get(src)
                .copied()
                .expect("well-formed DAIGs have no dangling sources");
            if comp.srcs.len() > 1 {
                let _ = writeln!(out, "  c{sid} -> f{fi} [label=\"{argi}\"];");
            } else {
                let _ = writeln!(out, "  c{sid} -> f{fi};");
            }
        }
        let _ = writeln!(out, "  f{fi} -> c{};", ids[*dest]);
    }

    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::FuncAnalysis;
    use crate::query::{IntraResolver, QueryStats};
    use dai_domains::IntervalDomain;
    use dai_lang::cfg::lower_program;
    use dai_lang::parser::parse_program;
    use dai_memo::MemoTable;

    fn analysis(src: &str) -> FuncAnalysis<IntervalDomain> {
        let cfg = lower_program(&parse_program(src).unwrap()).unwrap().cfgs()[0].clone();
        FuncAnalysis::new(cfg, IntervalDomain::top())
    }

    #[test]
    fn dot_is_syntactically_plausible() {
        let fa = analysis("function f() { var x = 1; return x; }");
        let dot = to_dot(fa.daig(), &DotOptions::default());
        assert!(dot.starts_with("digraph daig {"));
        assert!(dot.trim_end().ends_with('}'));
        // Every cell and one transfer glyph appear.
        assert_eq!(dot.matches("shape=box").count(), fa.daig().cell_count());
        assert!(dot.contains("⟦·⟧♯"));
    }

    #[test]
    fn dot_is_deterministic() {
        let fa = analysis("function f(n) { var i = 0; while (i < n) { i = i + 1; } return i; }");
        let a = to_dot(fa.daig(), &DotOptions::default());
        let b = to_dot(fa.daig(), &DotOptions::default());
        assert_eq!(a, b);
    }

    #[test]
    fn dot_is_deterministic_across_independent_constructions() {
        // Exports must be byte-identical for *independently built* (and
        // independently evaluated) DAIGs of the same program — cells and
        // computations are emitted in sorted-`Name` order, never in
        // hash-map order. This is what makes snapshots usable as golden
        // values in tests and as engine `Snapshot` responses.
        let src = "function f(n) { var i = 0; var s = 0; \
                   while (i < n) { s = s + i; i = i + 1; } return s; }";
        let export = || {
            let mut fa = analysis(src);
            let mut memo = MemoTable::new();
            let mut stats = QueryStats::default();
            fa.query_exit(&mut memo, &mut IntraResolver, &mut stats)
                .unwrap();
            to_dot(fa.daig(), &DotOptions::default())
        };
        let runs: Vec<String> = (0..3).map(|_| export()).collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
        // And the edit path stays deterministic too.
        let export_after_edit = || {
            let mut fa = analysis(src);
            let mut memo = MemoTable::new();
            let mut stats = QueryStats::default();
            fa.query_exit(&mut memo, &mut IntraResolver, &mut stats)
                .unwrap();
            let e0 = fa.cfg().edges().next().unwrap().id;
            fa.relabel(e0, dai_lang::Stmt::Skip).unwrap();
            to_dot(fa.daig(), &DotOptions::default())
        };
        assert_eq!(export_after_edit(), export_after_edit());
    }

    #[test]
    fn loop_daig_shows_fix_and_widen() {
        let fa = analysis("function f(n) { var i = 0; while (i < n) { i = i + 1; } return i; }");
        let dot = to_dot(fa.daig(), &DotOptions::default());
        assert!(dot.contains("fix"));
        assert!(dot.contains('∇'));
    }

    #[test]
    fn values_appear_after_query_and_vanish_after_edit() {
        let mut fa = analysis("function f() { var x = 41; return x; }");
        let no_values = DotOptions {
            show_values: false,
            ..DotOptions::default()
        };
        let before = to_dot(fa.daig(), &no_values);
        let empties_before = before.matches("style=solid").count();

        let mut memo = MemoTable::new();
        let mut stats = QueryStats::default();
        fa.query_exit(&mut memo, &mut IntraResolver, &mut stats)
            .unwrap();
        let after_query = to_dot(fa.daig(), &no_values);
        assert_eq!(after_query.matches("style=solid").count(), 0, "all filled");

        let e0 = fa.cfg().edges().next().unwrap().id;
        fa.relabel(e0, dai_lang::Stmt::Skip).unwrap();
        let after_edit = to_dot(fa.daig(), &no_values);
        assert!(
            after_edit.matches("style=solid").count() >= 1,
            "dirtied cone visible"
        );
        assert!(empties_before >= 1);
    }

    #[test]
    fn title_and_escaping() {
        let fa = analysis("function f() { var x = 1; return x; }");
        let opts = DotOptions {
            title: Some("quote \" backslash \\ newline \n done".to_string()),
            ..DotOptions::default()
        };
        let dot = to_dot(fa.daig(), &opts);
        assert!(dot.contains("label=\"quote \\\" backslash \\\\ newline \\n done\""));
    }

    #[test]
    fn truncation_limits_value_length() {
        assert_eq!(truncate("abcdef", 4), "abc…");
        assert_eq!(truncate("abc", 4), "abc");
    }
}
