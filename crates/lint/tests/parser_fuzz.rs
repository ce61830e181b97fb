//! Property tests: the parser (and everything stacked on it) must survive
//! arbitrary token soup and mutilated real sources.
//!
//! Same fragment-table scheme as `lexer_fuzz.rs` — the vendored proptest
//! has no string strategies — but the table is biased toward *parser*
//! hard cases: unbalanced braces, generics with `->` arrows inside,
//! qualifier pileups, half-finished `let` bindings, attributes, and the
//! guard-bind shapes R004 keys on. A second property splices fragments
//! into and deletes ranges from real workspace files, so recovery is
//! exercised on code that is *almost* well-formed — the regime where a
//! recursive-descent parser's error paths actually live.

use autodbaas_lint::ast::{Ast, Item, Span};
use autodbaas_lint::lexer::{code_tokens, tokenize};
use autodbaas_lint::parse::parse;
use autodbaas_lint::{lint_sources, SourceFile};
use proptest::prelude::*;

/// Fragments biased toward parser edge cases.
const FRAGMENTS: &[&str] = &[
    "fn",
    "fn f",
    "fn f()",
    "pub ",
    "pub(crate) ",
    "pub(in crate::x) ",
    "unsafe ",
    "async ",
    "const ",
    "extern \"C\" ",
    "mod m",
    "impl T",
    "impl Trait for T",
    "trait T",
    "struct S",
    "enum E",
    "union U",
    "use a::b::{c, d};",
    "macro_rules! m",
    "#[derive(Debug)]",
    "#![allow(dead_code)]",
    "#[cfg(test)]",
    "#[test]",
    "<",
    ">",
    "->",
    "=>",
    ">=",
    "<T: Iterator<Item = u8>>",
    "where T: Clone",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ";",
    ",",
    "let ",
    "let mut g = ",
    "let g = m.lock();",
    "let g = m.lock().unwrap();",
    "let v = *slot.out.lock();",
    "drop(g);",
    "drop",
    "self",
    "self.state",
    ".lock()",
    ".read()",
    ".write()",
    ".unwrap()",
    ".expect(\"msg\")",
    "x.recv()",
    "panic!(\"boom\")",
    "todo!()",
    "vec![1, 2]",
    "a::b::c()",
    "Self::new()",
    "ident",
    "Ident",
    "'a",
    "'x'",
    "::",
    ".",
    "!",
    "!=",
    "match x",
    "if let Some(x) = y",
    "while",
    "for i in 0..n",
    "return",
    "unsafe {",
    "// comment\n",
    "/* block",
    "\"str with { fn } inside\"",
    "r#\"raw { unbalanced\"#",
    "\n",
    " ",
    "0x1f",
    "3.14",
    "é",
];

fn soup(indices: &[usize]) -> String {
    indices
        .iter()
        .map(|&i| FRAGMENTS[i % FRAGMENTS.len()])
        .collect()
}

/// Real sources to mutate: the parser's actual diet, including the
/// hairiest file in the tree (raw-pointer lanes, closures, atomics) and
/// the parser itself.
const REAL_SOURCES: &[&str] = &[
    include_str!("../../cloudsim/src/shard.rs"),
    include_str!("../src/parse.rs"),
    include_str!("../../gateway/src/server.rs"),
];

fn snap(src: &str, mut pos: usize) -> usize {
    pos = pos.min(src.len());
    while !src.is_char_boundary(pos) {
        pos -= 1;
    }
    pos
}

/// Every span the parse produced, flattened: items, fns, bodies, events,
/// blocks.
fn all_spans(ast: &Ast) -> Vec<Span> {
    fn items(list: &[Item], out: &mut Vec<Span>) {
        for it in list {
            out.push(*it.span());
            match it {
                Item::Mod { items: inner, .. } => items(inner, out),
                Item::Impl { fns, .. } => {
                    for f in fns {
                        out.push(f.span);
                        bodies(f, out);
                    }
                }
                Item::Fn(f) => bodies(f, out),
                Item::Struct { .. } | Item::Other { .. } => {}
            }
        }
    }
    fn bodies(f: &autodbaas_lint::ast::FnDef, out: &mut Vec<Span>) {
        if let Some(b) = &f.body {
            out.push(b.span);
            out.extend(b.blocks.iter().copied());
            out.extend(b.events.iter().map(|e| e.span));
        }
    }
    let mut out = Vec::new();
    items(&ast.items, &mut out);
    out
}

fn assert_spans_in_bounds(src: &str, ast: &Ast) {
    for s in all_spans(ast) {
        assert!(s.start <= s.end, "inverted span {s:?}");
        assert!(
            s.end <= src.len(),
            "span past EOF {s:?} (len {})",
            src.len()
        );
        assert!(
            src.is_char_boundary(s.start) && src.is_char_boundary(s.end),
            "span splits a char {s:?}"
        );
    }
}

proptest! {
    #[test]
    fn parser_never_panics_on_soup_and_spans_stay_in_bounds(
        indices in prop::collection::vec(0usize..FRAGMENTS.len(), 0..120)
    ) {
        let src = soup(&indices);
        let tokens = tokenize(&src);
        let code = code_tokens(&tokens);
        let ast = parse(&src, &code);
        assert_spans_in_bounds(&src, &ast);
    }

    #[test]
    fn full_v2_pipeline_never_panics_on_soup(
        a in prop::collection::vec(0usize..FRAGMENTS.len(), 0..60),
        b in prop::collection::vec(0usize..FRAGMENTS.len(), 0..60),
    ) {
        // Two files so the call graph gets cross-file resolution attempts;
        // ctrlplane/cloudsim paths so the entry-point and lock analyses
        // engage. Only absence of panics is asserted.
        let _ = lint_sources(&[
            SourceFile {
                path: "crates/ctrlplane/src/soup.rs".into(),
                crate_name: "ctrlplane".into(),
                src: soup(&a),
            },
            SourceFile {
                path: "crates/cloudsim/src/shard.rs".into(),
                crate_name: "cloudsim".into(),
                src: soup(&b),
            },
        ]);
    }

    #[test]
    fn parser_survives_mutated_real_sources(
        file in 0usize..REAL_SOURCES.len(),
        cut_start in 0usize..8192,
        cut_len in 0usize..512,
        splice in prop::collection::vec(0usize..FRAGMENTS.len(), 0..12),
    ) {
        let original = REAL_SOURCES[file];
        let start = snap(original, cut_start % (original.len() + 1));
        let end = snap(original, (start + cut_len).min(original.len()));
        let mut src = String::with_capacity(original.len() + 64);
        src.push_str(&original[..start]);
        src.push_str(&soup(&splice));
        src.push_str(&original[end.max(start)..]);

        let tokens = tokenize(&src);
        let code = code_tokens(&tokens);
        let ast = parse(&src, &code);
        assert_spans_in_bounds(&src, &ast);
    }
}
