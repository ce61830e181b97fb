//! The coarse AST detlint's structural analyses run on.
//!
//! This is deliberately not a compiler AST. The parser ([`crate::parse`])
//! recovers exactly the structure the interprocedural rules need and no
//! more: the **item tree** (modules, functions, impl/trait blocks) with
//! exact byte spans, and per function a **flat, source-ordered event
//! stream** (calls, method calls, macro invocations, `unsafe` blocks,
//! lock-guard bindings and `drop`s) plus the span of every nested block.
//! Expressions are not tree-structured — R003/R004/D006 reason about
//! *which* operations appear and *where* (which block, before/after which
//! binding), never about operator precedence — and flattening is what
//! keeps the parser small enough to stay panic-free under fuzzing.
//!
//! Every node carries a [`Span`]; the parser fuzz suite asserts that each
//! span lies within the file and on token boundaries.

/// A byte range plus the 1-based line/column of its first byte.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based byte column of the first byte.
    pub col: u32,
}

impl Span {
    /// True when `other` lies entirely within `self`.
    pub fn contains(&self, other: &Span) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// True when byte offset `pos` lies within `self`.
    pub fn contains_pos(&self, pos: usize) -> bool {
        self.start <= pos && pos < self.end
    }
}

/// One parsed source file.
#[derive(Debug, Clone, Default)]
pub struct Ast {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// A top-level or nested item.
#[derive(Debug, Clone)]
pub enum Item {
    /// `mod name { … }` (inline) or `mod name;` (out-of-line, empty here —
    /// the referenced file is parsed as its own [`Ast`]).
    Mod {
        /// Module name.
        name: String,
        /// Whole-item span.
        span: Span,
        /// Nested items (empty for `mod name;`).
        items: Vec<Item>,
    },
    /// A free function.
    Fn(FnDef),
    /// `impl Type { … }` / `impl Trait for Type { … }` /
    /// `trait Name { … }` (traits reuse the shape: `self_ty` is the trait
    /// name and `trait_name` is `None`; default method bodies parse like
    /// impl fns).
    Impl {
        /// The implementing type (or trait being declared).
        self_ty: String,
        /// Trait implemented, for `impl Trait for Type`.
        trait_name: Option<String>,
        /// Whole-item span.
        span: Span,
        /// Associated functions, in source order.
        fns: Vec<FnDef>,
    },
    /// `struct Name { … }` with named fields (the call graph types
    /// `self.field.method()` receivers from these).
    Struct {
        /// Struct name.
        name: String,
        /// Whole-item span.
        span: Span,
        /// `(field, type)` per named field, the type as the final plain
        /// path segment (`Option<Tde>` → `Option`, `a::Tde` → `Tde`);
        /// empty when the type is not a path (tuples, arrays).
        fields: Vec<(String, String)>,
    },
    /// Anything else (tuple struct/enum/use/const/static/type/macro). Kept
    /// only for span accounting.
    Other {
        /// Whole-item span.
        span: Span,
    },
}

impl Item {
    /// The item's span.
    pub fn span(&self) -> &Span {
        match self {
            Item::Mod { span, .. }
            | Item::Impl { span, .. }
            | Item::Struct { span, .. }
            | Item::Other { span } => span,
            Item::Fn(f) => &f.span,
        }
    }
}

/// One function definition (free, associated, or trait-default).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare name (`run_epoch`).
    pub name: String,
    /// `pub` in any form (`pub`, `pub(crate)`, …).
    pub is_pub: bool,
    /// Declared `unsafe fn`.
    pub is_unsafe: bool,
    /// Signature-through-body span.
    pub span: Span,
    /// Parsed body; `None` for bodiless trait signatures.
    pub body: Option<Body>,
}

/// A parsed function body.
#[derive(Debug, Clone, Default)]
pub struct Body {
    /// The `{ … }` span of the body itself.
    pub span: Span,
    /// Flat, source-ordered operation events.
    pub events: Vec<Event>,
    /// Spans of every brace block in the body, body block included,
    /// innermost blocks appearing after the blocks that contain them is
    /// NOT guaranteed — use [`Body::enclosing_block`].
    pub blocks: Vec<Span>,
}

impl Body {
    /// The smallest recorded block containing byte `pos` (falls back to
    /// the body span).
    pub fn enclosing_block(&self, pos: usize) -> Span {
        let mut best = self.span;
        for b in &self.blocks {
            if b.contains_pos(pos) && (b.end - b.start) < (best.end - best.start) {
                best = *b;
            }
        }
        best
    }
}

/// One operation event inside a body.
#[derive(Debug, Clone)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Span of the defining token (call name, `unsafe` keyword, `let`
    /// statement for guard bindings).
    pub span: Span,
}

/// Event classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// Free or path call: `foo(…)`, `a::b::foo(…)`, `Type::new(…)`.
    /// `path` holds the written segments (`["a", "b", "foo"]`).
    Call {
        /// Path segments as written.
        path: Vec<String>,
    },
    /// Method call `recv.name(…)`. `recv` is the textual receiver chain
    /// (`"self.tuners"`, `"slot.out"`) or `"<expr>"` when the receiver is
    /// not a plain ident chain.
    MethodCall {
        /// Method name.
        name: String,
        /// Receiver chain text.
        recv: String,
    },
    /// Macro invocation `name!…`.
    MacroCall {
        /// Macro name.
        name: String,
    },
    /// An `unsafe { … }` block (span covers keyword through closing brace).
    UnsafeBlock,
    /// `let [mut] name = recv.lock()/.read()/.write()[.unwrap()/.expect(…)];`
    /// — a lock guard coming live. Span covers the whole `let` statement.
    GuardBind {
        /// Bound guard name.
        name: String,
        /// Textual receiver chain the lock was taken on.
        recv: String,
        /// `lock`, `read` or `write`.
        method: String,
    },
    /// `drop(name)` — an explicit early guard release.
    GuardDrop {
        /// Dropped binding.
        name: String,
    },
    /// Index expression `name[…]` (recorded for span accounting and
    /// future rules; R003 deliberately does not treat it as a panic
    /// source — see DESIGN.md's blind-spot table).
    Index {
        /// Indexed receiver chain.
        recv: String,
    },
}

/// Depth-first walk over all functions in an item tree, with the module
/// path and enclosing impl type passed to the callback.
pub fn walk_fns<'a, F>(items: &'a [Item], f: &mut F)
where
    F: FnMut(&[String], Option<&str>, Option<&str>, &'a FnDef),
{
    fn go<'a, F>(items: &'a [Item], mods: &mut Vec<String>, f: &mut F)
    where
        F: FnMut(&[String], Option<&str>, Option<&str>, &'a FnDef),
    {
        for item in items {
            match item {
                Item::Fn(def) => f(mods, None, None, def),
                Item::Mod { name, items, .. } => {
                    mods.push(name.clone());
                    go(items, mods, f);
                    mods.pop();
                }
                Item::Impl {
                    self_ty,
                    trait_name,
                    fns,
                    ..
                } => {
                    for def in fns {
                        f(mods, Some(self_ty), trait_name.as_deref(), def);
                    }
                }
                Item::Struct { .. } | Item::Other { .. } => {}
            }
        }
    }
    go(items, &mut Vec::new(), f);
}

/// Depth-first walk over every named-field struct in an item tree.
pub fn walk_structs<'a, F>(items: &'a [Item], f: &mut F)
where
    F: FnMut(&'a str, &'a Span, &'a [(String, String)]),
{
    for item in items {
        match item {
            Item::Struct { name, span, fields } => f(name, span, fields),
            Item::Mod { items, .. } => walk_structs(items, f),
            _ => {}
        }
    }
}
