//! A lightweight syntax pass over the token stream: item structure
//! (mods, fns, impls, use trees) and a brace-matched block tree with
//! early-exit edges.
//!
//! This is not a Rust parser — it is a recursive-descent *recovery*
//! pass that extracts exactly the structure the flow-sensitive lints
//! need: which block a token lives in, what construct introduced the
//! block (`fn` body, closure, loop), where control can leave a block
//! early (`return` / `?` / `break` / `continue` / `panic!`), which
//! `impl` owns a function, and which modules a `use` declaration
//! reaches. Because the lexer has already stripped comments, strings,
//! and char literals, every `{`/`}` left in the stream is a real brace,
//! so the block tree brace-balances for any valid Rust file (the
//! round-trip test in `tests/` proves this over the whole workspace).

use crate::lexer::{ident, Tok, Token};

/// What construct introduced a block (decides early-exit containment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intro {
    /// A `fn` body: contains `return`.
    Fn,
    /// A closure body: contains `return`.
    Closure,
    /// A `for`/`while`/`loop` body: contains `break`/`continue`.
    Loop,
    /// An `impl` body.
    Impl,
    /// A `mod` body.
    Mod,
    /// Anything else: `if`/`else`/`match` arms, plain blocks, struct
    /// literals — transparent to every exit kind.
    Other,
}

/// One `{ … }` region of the file.
#[derive(Debug, Clone)]
pub struct Block {
    /// Parent block id (`None` only for the virtual file-level root).
    pub parent: Option<usize>,
    /// Token index of the opening `{` (`usize::MAX` for the root).
    pub open: usize,
    /// Token index of the matching `}` (tokens.len() if unclosed).
    pub close: usize,
    /// The construct that introduced the block.
    pub intro: Intro,
}

/// A way control can leave a block before its closing brace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitKind {
    /// `return`.
    Return,
    /// The `?` operator.
    Question,
    /// `break`.
    Break,
    /// `continue`.
    Continue,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    PanicMacro,
}

/// One early-exit edge.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Token index of the exit keyword / operator.
    pub token: usize,
    /// Innermost block containing it.
    pub block: usize,
    /// Which kind of exit.
    pub kind: ExitKind,
}

/// A `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function name.
    pub name: String,
    /// Self type of the innermost enclosing `impl`, if any.
    pub owner: Option<String>,
    /// Token index of the `fn` keyword.
    pub token: usize,
    /// 1-based source line of the `fn` keyword.
    pub line: u32,
    /// Declared `pub` (including `pub(crate)` / `pub(super)`).
    pub is_pub: bool,
    /// Body block id (None for trait-method declarations).
    pub body: Option<usize>,
}

/// An `impl` item.
#[derive(Debug, Clone)]
pub struct ImplItem {
    /// The self type's final identifier (`BPlusTreeOf`, `HeapTable`, …).
    pub self_type: String,
    /// Token index of the `impl` keyword.
    pub token: usize,
    /// Body block id.
    pub body: Option<usize>,
}

/// An inline `mod` item.
#[derive(Debug, Clone)]
pub struct ModItem {
    /// The module name.
    pub name: String,
    /// 1-based source line.
    pub line: u32,
}

/// One `use …;` declaration, expanded to its leaf paths
/// (`use crate::{a, b::c};` → `["crate::a", "crate::b::c"]`).
#[derive(Debug, Clone)]
pub struct UseDecl {
    /// Expanded leaf paths, `::`-joined, aliases dropped.
    pub paths: Vec<String>,
    /// 1-based source line of the `use` keyword.
    pub line: u32,
}

/// The per-file syntax index the flow-sensitive rules consume.
#[derive(Debug, Default)]
pub struct SyntaxIndex {
    /// All blocks; id 0 is the virtual file-level root.
    pub blocks: Vec<Block>,
    /// Early-exit edges, in token order.
    pub exits: Vec<Exit>,
    /// `fn` items, in source order.
    pub fns: Vec<FnItem>,
    /// `impl` items, in source order.
    pub impls: Vec<ImplItem>,
    /// Inline `mod` items, in source order.
    pub mods: Vec<ModItem>,
    /// `use` declarations, expanded.
    pub uses: Vec<UseDecl>,
    /// Innermost block id per token index.
    block_of: Vec<usize>,
    /// Every `{`/`}` matched and the stack closed at EOF.
    pub balanced: bool,
}

/// Keywords that decide a block's [`Intro`] when seen on the backward
/// walk from its `{`.
fn intro_of_keyword(kw: &str) -> Option<Intro> {
    Some(match kw {
        "fn" => Intro::Fn,
        "for" | "while" | "loop" => Intro::Loop,
        "impl" => Intro::Impl,
        "mod" => Intro::Mod,
        "trait" | "enum" | "struct" | "union" | "match" | "if" | "else" => Intro::Other,
        _ => return None,
    })
}

impl SyntaxIndex {
    /// Build the index from a lexed token stream.
    pub fn build(toks: &[Token]) -> SyntaxIndex {
        let mut ix = SyntaxIndex {
            blocks: vec![Block { parent: None, open: usize::MAX, close: toks.len(), intro: Intro::Other }],
            block_of: vec![0; toks.len()],
            balanced: true,
            ..SyntaxIndex::default()
        };
        // (block id, self type) for impl bodies, as a parse-time stack.
        let mut impl_stack: Vec<(usize, String)> = Vec::new();
        let mut stack: Vec<usize> = vec![0];
        // fn items whose body block has not opened yet, by `fn` token.
        let mut pending_fns: Vec<usize> = Vec::new();
        let mut pending_impls: Vec<usize> = Vec::new();

        let mut i = 0usize;
        while i < toks.len() {
            let top = *stack.last().unwrap_or(&0);
            ix.block_of[i] = top;
            match &toks[i].tok {
                Tok::Punct('{') => {
                    let (intro, intro_kw) = block_intro(toks, i);
                    let id = ix.blocks.len();
                    ix.blocks.push(Block { parent: Some(top), open: i, close: toks.len(), intro });
                    ix.block_of[i] = id;
                    stack.push(id);
                    // Link the block to the item whose keyword introduced it.
                    if let Some(kw) = intro_kw {
                        if intro == Intro::Fn {
                            if let Some(pos) = pending_fns.iter().position(|&f| ix.fns[f].token == kw) {
                                let f = pending_fns.remove(pos);
                                ix.fns[f].body = Some(id);
                            }
                        } else if intro == Intro::Impl {
                            if let Some(pos) =
                                pending_impls.iter().position(|&p| ix.impls[p].token == kw)
                            {
                                let p = pending_impls.remove(pos);
                                ix.impls[p].body = Some(id);
                                impl_stack.push((id, ix.impls[p].self_type.clone()));
                            }
                        }
                    }
                }
                Tok::Punct('}') => {
                    if stack.len() > 1 {
                        let id = stack.pop().unwrap_or(0);
                        ix.block_of[i] = id;
                        ix.blocks[id].close = i;
                        if impl_stack.last().is_some_and(|&(b, _)| b == id) {
                            impl_stack.pop();
                        }
                    } else {
                        ix.balanced = false;
                    }
                }
                Tok::Punct('?') => {
                    ix.exits.push(Exit { token: i, block: top, kind: ExitKind::Question });
                }
                Tok::Ident(id) => match id.as_str() {
                    "return" => ix.exits.push(Exit { token: i, block: top, kind: ExitKind::Return }),
                    "break" => ix.exits.push(Exit { token: i, block: top, kind: ExitKind::Break }),
                    "continue" => {
                        ix.exits.push(Exit { token: i, block: top, kind: ExitKind::Continue })
                    }
                    "panic" | "unreachable" | "todo" | "unimplemented"
                        if toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct('!')) =>
                    {
                        ix.exits.push(Exit { token: i, block: top, kind: ExitKind::PanicMacro })
                    }
                    "fn" => {
                        if let Some(name) = toks.get(i + 1).and_then(ident) {
                            let owner = impl_stack
                                .iter()
                                .rev()
                                .find(|(b, _)| stack.contains(b))
                                .map(|(_, t)| t.clone());
                            pending_fns.push(ix.fns.len());
                            ix.fns.push(FnItem {
                                name: name.to_string(),
                                owner,
                                token: i,
                                line: toks[i].line,
                                is_pub: has_pub_before(toks, i),
                                body: None,
                            });
                        }
                    }
                    "impl" if !impl_in_type_position(toks, i) => {
                        if let Some(self_type) = impl_self_type(toks, i) {
                            pending_impls.push(ix.impls.len());
                            ix.impls.push(ImplItem { self_type, token: i, body: None });
                        }
                    }
                    "mod" => {
                        if let Some(name) = toks.get(i + 1).and_then(ident) {
                            ix.mods.push(ModItem { name: name.to_string(), line: toks[i].line });
                        }
                    }
                    "use" if use_position(toks, i) => {
                        // Consume the whole declaration so use-tree braces
                        // never reach the block tree.
                        let (decl, next) = parse_use(toks, i);
                        for k in i..next.min(toks.len()) {
                            ix.block_of[k] = top;
                        }
                        ix.uses.push(decl);
                        i = next;
                        continue;
                    }
                    _ => {}
                },
                _ => {}
            }
            i += 1;
        }
        if stack.len() != 1 {
            ix.balanced = false;
        }
        ix
    }

    /// Innermost block containing token `t`.
    pub fn block_at(&self, t: usize) -> usize {
        self.block_of.get(t).copied().unwrap_or(0)
    }

    /// Is block `inner` equal to or nested (transitively) inside `outer`?
    pub fn within(&self, mut inner: usize, outer: usize) -> bool {
        loop {
            if inner == outer {
                return true;
            }
            match self.blocks.get(inner).and_then(|b| b.parent) {
                Some(p) => inner = p,
                None => return false,
            }
        }
    }

    /// Does this exit edge actually leave block `target` (rather than
    /// being absorbed by an intervening loop / closure / nested fn)?
    ///
    /// `?` and panic exits always leave (the value/process is gone);
    /// `return` is absorbed by a closure or nested `fn` body between the
    /// exit and `target`; `break`/`continue` are absorbed by a loop body.
    pub fn escapes(&self, e: &Exit, target: usize) -> bool {
        if !self.within(e.block, target) {
            return false;
        }
        let mut w = e.block;
        while w != target {
            let intro = self.blocks[w].intro;
            let absorbed = match e.kind {
                ExitKind::Return => matches!(intro, Intro::Fn | Intro::Closure),
                ExitKind::Break | ExitKind::Continue => intro == Intro::Loop,
                ExitKind::Question | ExitKind::PanicMacro => false,
            };
            if absorbed {
                return false;
            }
            match self.blocks[w].parent {
                Some(p) => w = p,
                None => return false,
            }
        }
        true
    }
}

/// Decide what introduced the block opening at token `open` by walking
/// backwards to the nearest statement boundary (`{`, `}`, `;`), looking
/// for an introducing keyword. Returns the intro and the keyword's
/// token index, if one was found.
fn block_intro(toks: &[Token], open: usize) -> (Intro, Option<usize>) {
    if open == 0 {
        return (Intro::Other, None);
    }
    // `|…| {` / `move |…| {`: the token just before the brace is the
    // closing `|` of the parameter list.
    if toks[open - 1].tok == Tok::Punct('|') {
        return (Intro::Closure, None);
    }
    let floor = open.saturating_sub(60);
    let mut j = open - 1;
    // A `for` is ambiguous until we know whether an `impl` precedes it
    // in the same header (`impl Trait for Type {` vs `for x in y {`), so
    // hold it and keep walking.
    let mut pending_for: Option<usize> = None;
    loop {
        match &toks[j].tok {
            Tok::Punct('{') | Tok::Punct('}') | Tok::Punct(';') => break,
            Tok::Ident(id) => {
                if let Some(intro) = intro_of_keyword(id) {
                    if id == "for" {
                        pending_for = Some(j);
                    } else if intro == Intro::Impl {
                        // `-> impl Iterator<…> {` is a fn body: keep
                        // walking back to the `fn`.
                        if !impl_in_type_position(toks, j) {
                            return (Intro::Impl, Some(j));
                        }
                    } else if let Some(f) = pending_for {
                        return (Intro::Loop, Some(f));
                    } else {
                        return (intro, Some(j));
                    }
                }
            }
            _ => {}
        }
        if j == floor || j == 0 {
            break;
        }
        j -= 1;
    }
    match pending_for {
        Some(f) => (Intro::Loop, Some(f)),
        None => (Intro::Other, None),
    }
}

/// Is this `impl` keyword an `impl Trait` type (a return or argument
/// type) rather than the start of an impl item? An item's `impl` follows
/// a `}` / `;` / `]` / `unsafe` or opens the file; a type's follows the
/// punctuation of a signature.
fn impl_in_type_position(toks: &[Token], at: usize) -> bool {
    at > 0
        && matches!(
            toks[at - 1].tok,
            Tok::Punct('>' | ':' | '(' | ',' | '<' | '&' | '=' | '+')
        )
}

/// Is the token before `fn`/qualifiers a `pub` (with optional
/// `(crate)`/`(super)`/`(in …)` restriction)?
fn has_pub_before(toks: &[Token], fn_tok: usize) -> bool {
    let mut j = fn_tok;
    while j > 0 {
        j -= 1;
        match &toks[j].tok {
            // Qualifiers between `pub` and `fn`.
            Tok::Ident(q) if matches!(q.as_str(), "const" | "async" | "unsafe" | "extern") => {}
            Tok::Str(_) => {} // extern "C"
            Tok::Punct(')') => {
                // Walk back over a `(crate)` / `(super)` / `(in …)` group.
                let mut depth = 1usize;
                while j > 0 && depth > 0 {
                    j -= 1;
                    match &toks[j].tok {
                        Tok::Punct(')') => depth += 1,
                        Tok::Punct('(') => depth -= 1,
                        _ => {}
                    }
                }
            }
            Tok::Ident(p) => return p == "pub",
            _ => return false,
        }
    }
    false
}

/// Extract the self type of an `impl` header: the identifier after
/// `for` if present (trait impls), else the first type identifier after
/// the generic parameter list.
fn impl_self_type(toks: &[Token], impl_tok: usize) -> Option<String> {
    let mut j = impl_tok + 1;
    // Skip the generic parameter list `<…>` if present.
    if toks.get(j).map(|t| &t.tok) == Some(&Tok::Punct('<')) {
        let mut depth = 0usize;
        while let Some(t) = toks.get(j) {
            match t.tok {
                Tok::Punct('<') => depth += 1,
                Tok::Punct('>') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    let mut first: Option<&str> = None;
    let mut last: Option<&str> = None;
    let mut after_for: Option<&str> = None;
    let mut saw_for = false;
    while let Some(t) = toks.get(j) {
        match &t.tok {
            Tok::Punct('{') | Tok::Punct(';') => break,
            Tok::Ident(id) if id == "where" => break,
            Tok::Ident(id) if id == "for" => saw_for = true,
            Tok::Ident(id) => {
                if saw_for && after_for.is_none() {
                    after_for = Some(id);
                }
                if first.is_none() {
                    first = Some(id);
                }
                last = Some(id);
            }
            _ => {}
        }
        j += 1;
    }
    // For path types (`colt_storage::HeapTable`) the final segment names
    // the type; for trait impls the segment after `for` does.
    let _ = last;
    after_for.or(first).map(str::to_string)
}

/// Is this `use` a declaration (statement position) rather than a macro
/// fragment? Accept file start, after `;`, braces, attribute `]`, or a
/// visibility qualifier.
fn use_position(toks: &[Token], i: usize) -> bool {
    if i == 0 {
        return true;
    }
    match &toks[i - 1].tok {
        Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') | Tok::Punct(']')
        | Tok::Punct(')') => true,
        Tok::Ident(id) => id == "pub",
        _ => false,
    }
}

/// Parse one `use …;` declaration starting at the `use` keyword,
/// expanding the tree into leaf paths. Returns the declaration and the
/// index just past the terminating `;`.
fn parse_use(toks: &[Token], use_tok: usize) -> (UseDecl, usize) {
    let line = toks[use_tok].line;
    let mut j = use_tok + 1;
    let mut paths = Vec::new();
    parse_use_tree(toks, &mut j, "", &mut paths);
    // Advance past the terminating `;` if present.
    while let Some(t) = toks.get(j) {
        j += 1;
        if t.tok == Tok::Punct(';') {
            break;
        }
    }
    (UseDecl { paths, line }, j)
}

/// Recursive use-tree expansion: `prefix` is the `::`-joined path so far.
fn parse_use_tree(toks: &[Token], j: &mut usize, prefix: &str, out: &mut Vec<String>) {
    let mut path = prefix.to_string();
    loop {
        match toks.get(*j).map(|t| &t.tok) {
            Some(Tok::Ident(id)) if id == "as" => {
                // Alias: skip the rename identifier, keep the path.
                *j += 2;
            }
            Some(Tok::Ident(id)) => {
                if !path.is_empty() {
                    path.push_str("::");
                }
                path.push_str(id);
                *j += 1;
            }
            Some(Tok::Punct(':')) => {
                *j += 1; // each `::` arrives as two `:` tokens
            }
            Some(Tok::Punct('*')) => {
                if !path.is_empty() {
                    path.push_str("::");
                }
                path.push('*');
                *j += 1;
            }
            Some(Tok::Punct('{')) => {
                *j += 1;
                loop {
                    match toks.get(*j).map(|t| &t.tok) {
                        Some(Tok::Punct('}')) | None => {
                            *j += 1;
                            break;
                        }
                        Some(Tok::Punct(',')) => *j += 1,
                        _ => parse_use_tree(toks, j, &path, out),
                    }
                }
                return; // a group is always the final element of its branch
            }
            Some(Tok::Punct(',')) | Some(Tok::Punct('}')) | Some(Tok::Punct(';')) | None => break,
            _ => {
                *j += 1;
            }
        }
    }
    if path.len() > prefix.len() {
        out.push(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn index(src: &str) -> SyntaxIndex {
        SyntaxIndex::build(&lex(src).tokens)
    }

    #[test]
    fn block_tree_nests_and_balances() {
        let ix = index("fn f() { if x { y(); } }");
        assert!(ix.balanced);
        // root + fn body + if block
        assert_eq!(ix.blocks.len(), 3);
        assert_eq!(ix.blocks[1].intro, Intro::Fn);
        assert_eq!(ix.blocks[2].intro, Intro::Other);
        assert_eq!(ix.blocks[2].parent, Some(1));
        assert!(ix.within(2, 1));
        assert!(!ix.within(1, 2));
    }

    #[test]
    fn unbalanced_is_reported() {
        assert!(!index("fn f() { {").balanced);
        assert!(!index("} fn f() {}").balanced);
        assert!(index("fn f() {}").balanced);
    }

    #[test]
    fn loops_and_closures_get_their_intro() {
        let ix = index("fn f() { for x in y { a(); } let c = |q| { b(); }; while z { } loop { } }");
        let intros: Vec<Intro> = ix.blocks[1..].iter().map(|b| b.intro).collect();
        assert_eq!(
            intros,
            [Intro::Fn, Intro::Loop, Intro::Closure, Intro::Loop, Intro::Loop]
        );
    }

    #[test]
    fn early_exits_are_recorded_with_their_block() {
        let ix = index("fn f() -> R { if a { return x; } let v = g()?; loop { break; } panic!(\"n\") }");
        let kinds: Vec<ExitKind> = ix.exits.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [ExitKind::Return, ExitKind::Question, ExitKind::Break, ExitKind::PanicMacro]
        );
        // The break sits in the loop block; return in the if block.
        let ret = ix.exits[0];
        let brk = ix.exits[2];
        assert_eq!(ix.blocks[ret.block].intro, Intro::Other);
        assert_eq!(ix.blocks[brk.block].intro, Intro::Loop);
    }

    #[test]
    fn escape_containment() {
        let ix = index("fn f() { let s = g(); for i in v { if c { continue; } } s.done(); }");
        let body = 1usize;
        let cont = ix.exits.iter().find(|e| e.kind == ExitKind::Continue).unwrap();
        // The continue is absorbed by the for-loop body before reaching
        // the fn body: it does not escape the fn body block.
        assert!(!ix.escapes(cont, body));

        let ix2 = index("fn f() { let s = g(); if c { return; } s.done(); }");
        let ret = ix2.exits.iter().find(|e| e.kind == ExitKind::Return).unwrap();
        assert!(ix2.escapes(ret, 1));

        let ix3 = index("fn f() { let s = g(); let c = || { return 1; }; s.done(); }");
        let ret3 = ix3.exits.iter().find(|e| e.kind == ExitKind::Return).unwrap();
        assert!(!ix3.escapes(ret3, 1), "closure absorbs return");
    }

    #[test]
    fn fn_items_with_owner_and_pub() {
        let src = "
impl HeapTable {
    pub fn fetch(&self) {}
    fn private(&self) {}
    pub(crate) fn crate_fn(&self) {}
}
pub fn free() {}
fn plain() {}
impl fmt::Debug for HeapTable { fn fmt(&self) {} }
";
        let ix = index(src);
        let by_name = |n: &str| ix.fns.iter().find(|f| f.name == n).unwrap();
        assert!(by_name("fetch").is_pub);
        assert_eq!(by_name("fetch").owner.as_deref(), Some("HeapTable"));
        assert!(!by_name("private").is_pub);
        assert!(by_name("crate_fn").is_pub);
        assert!(by_name("free").is_pub);
        assert!(by_name("free").owner.is_none());
        assert!(!by_name("plain").is_pub);
        assert_eq!(by_name("fmt").owner.as_deref(), Some("HeapTable"));
        assert!(by_name("fetch").body.is_some());
    }

    #[test]
    fn impl_trait_types_do_not_hide_fn_bodies() {
        // `impl` in a return or argument type is not an impl item: the
        // body still belongs to the fn, and the next fn keeps its owner.
        let ix = index(
            "impl HeapTable {
    pub fn scan<'a>(&'a self, io: &mut IoStats) -> impl Iterator<Item = (RowId, Row)> + 'a { self.iter() }
    pub fn each(&self, f: impl Fn(u32)) { f(1) }
    pub fn after(&self) {}
}",
        );
        assert_eq!(ix.impls.len(), 1);
        for name in ["scan", "each", "after"] {
            let f = ix.fns.iter().find(|f| f.name == name).unwrap();
            assert!(f.body.is_some(), "{name} has a body");
            assert_eq!(f.owner.as_deref(), Some("HeapTable"), "{name}");
        }
    }

    #[test]
    fn impl_generics_are_skipped() {
        let ix = index("impl<K: TreeKey> BPlusTreeOf<K> { pub fn lookup(&self) {} }");
        assert_eq!(ix.impls[0].self_type, "BPlusTreeOf");
        assert_eq!(ix.fns[0].owner.as_deref(), Some("BPlusTreeOf"));
    }

    #[test]
    fn use_trees_expand() {
        let ix = index(
            "use crate::heap::HeapTable;\npub use crate::{btree::BPlusTree, page as p, value::*};\nuse std::fmt;\n",
        );
        let all: Vec<&str> = ix.uses.iter().flat_map(|u| u.paths.iter().map(String::as_str)).collect();
        assert_eq!(
            all,
            [
                "crate::heap::HeapTable",
                "crate::btree::BPlusTree",
                "crate::page",
                "crate::value::*",
                "std::fmt"
            ]
        );
    }

    #[test]
    fn use_tree_braces_stay_out_of_the_block_tree() {
        let ix = index("use crate::{a, b};\nfn f() { g(); }\n");
        assert!(ix.balanced);
        assert_eq!(ix.blocks.len(), 2); // root + fn body only
        assert_eq!(ix.blocks[1].intro, Intro::Fn);
    }

    #[test]
    fn mods_are_recorded() {
        let ix = index("mod tests { fn t() {} }\npub mod api;\n");
        let names: Vec<&str> = ix.mods.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["tests", "api"]);
    }

    #[test]
    fn block_at_finds_the_innermost_block() {
        let src = "fn f() { if x { y(); } z(); }";
        let ix = index(src);
        let toks = lex(src).tokens;
        let y_tok = toks.iter().position(|t| ident(t) == Some("y")).unwrap();
        let z_tok = toks.iter().position(|t| ident(t) == Some("z")).unwrap();
        assert_eq!(ix.blocks[ix.block_at(y_tok)].intro, Intro::Other);
        assert_eq!(ix.blocks[ix.block_at(z_tok)].intro, Intro::Fn);
    }
}
