//! Fork-coverage analyzer.
//!
//! The zero-clone crash-capture path is proptested against a full read
//! of the live stack, but those tests only cover the fields that *exist
//! today*. The failure mode this pass closes: `capture` builds a
//! snapshot field-by-field through borrowed accessors and `delta_apply`
//! rebuilds cursor state from a per-epoch delta — a field added to
//! either type but not to these bodies silently vanishes from every
//! crash image. A hand-written `clone` (or `fork`) that copies a type
//! field by field has the same failure mode: a new field is silently
//! dropped or aliased. For every non-test `fn fork`, `fn capture`,
//! `fn delta_apply` (and `fn clone` inside an `impl Clone for …`) in
//! `src/`, whose body builds the type with an explicit struct literal
//! (`Self { … }` / `TypeName { … }`), every declared field of that
//! struct must be *mentioned* in the body; missing fields are findings.
//!
//! Bodies that delegate — `self.clone()`, a constructor call, returning
//! `None` — are skipped: they do not enumerate fields, so field
//! addition cannot silently miss there. `#[derive(Clone)]` emits no
//! source and is likewise out of scope (the compiler already covers
//! every field). Struct-update syntax (`..base`) is deliberately *not*
//! recognized as coverage: in a deep-copy path a `..` spread is exactly
//! the kind of silent aliasing this lint exists to catch.

use std::collections::BTreeSet;

use crate::files::{FileKind, SourceFile};
use crate::lexer::Tok;
use crate::report::Finding;
use crate::scan::StructItem;

/// Runs over all files of one crate at once (the struct a `fork` builds
/// may live in a sibling module file).
pub fn run_crate(files: &[&SourceFile]) -> Vec<Finding> {
    let structs: Vec<(&SourceFile, &StructItem)> = files
        .iter()
        .filter(|f| f.kind == FileKind::Src)
        .flat_map(|f| {
            f.scan
                .structs
                .iter()
                .filter(|s| !s.is_test)
                .map(move |s| (*f, s))
        })
        .collect();
    let mut out = Vec::new();
    for file in files.iter().filter(|f| f.kind == FileKind::Src) {
        for f in file.scan.fns.iter().filter(|f| !f.is_test) {
            let is_fork = matches!(f.name.as_str(), "fork" | "capture" | "delta_apply");
            let is_clone = f.name == "clone" && f.impl_trait.as_deref() == Some("Clone");
            if !is_fork && !is_clone {
                continue;
            }
            let Some(ty) = f.impl_type.as_deref() else {
                continue;
            };
            let Some((_, st)) = structs.iter().find(|(_, s)| s.name == ty) else {
                continue; // enum, alias, or out-of-crate type
            };
            if !st.has_named_fields || st.fields.is_empty() {
                continue;
            }
            let toks = &file.scan.toks;
            let (b0, b1) = f.body;
            // Delegation forms are total by construction.
            let delegates = (b0..=b1).any(|i| {
                toks[i].tok.is_ident("self")
                    && toks.get(i + 1).is_some_and(|t| t.tok.is_punct('.'))
                    && toks.get(i + 2).is_some_and(|t| t.tok.is_ident("clone"))
                    && toks.get(i + 3).is_some_and(|t| t.tok.is_punct('('))
            });
            if delegates {
                continue;
            }
            // Only field-enumerating bodies are checked: find a struct
            // literal `Ty {` or `Self {`.
            let literal = (b0..=b1).any(|i| {
                matches!(&toks[i].tok, Tok::Ident(w) if w == ty || w == "Self")
                    && toks.get(i + 1).is_some_and(|t| t.tok.is_punct('{'))
            });
            if !literal {
                continue;
            }
            let mentioned: BTreeSet<&str> = (b0..=b1).filter_map(|i| toks[i].tok.ident()).collect();
            for field in &st.fields {
                if !mentioned.contains(field.name.as_str()) {
                    out.push(Finding {
                        analyzer: "fork-coverage",
                        path: file.rel.clone(),
                        line: f.line,
                        symbol: format!("{}::{}", file.crate_key.name(), f.qual),
                        snippet: format!("{ty}.{}", field.name),
                        message: format!(
                            "field `{}` of `{ty}` (declared {}:{}) is not mentioned in this {} path; a new field must be explicitly deep-copied or it aliases across forks",
                            field.name,
                            file.rel,
                            field.line,
                            f.name,
                        ),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::CrateKey;

    fn run_on(src: &str) -> Vec<Finding> {
        let f = SourceFile::new(CrateKey::Core, FileKind::Src, "crates/core/src/x.rs", src);
        run_crate(&[&f])
    }

    #[test]
    fn missing_field_is_flagged() {
        let src = r#"
            struct Stack { clock: u64, queue: Vec<u8>, arena: Vec<u64> }
            impl Stack {
                pub fn fork(&self) -> Stack {
                    Stack { clock: self.clock, queue: self.queue.clone() }
                }
            }
        "#;
        // (The incomplete literal would not compile in real code — the
        // analyzer sees mentions, not the literal's completeness, so a
        // field initialized outside the literal still counts. This probe
        // only checks the mention set.)
        let f = run_on(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].snippet, "Stack.arena");
    }

    #[test]
    fn capture_and_delta_apply_bodies_are_audited() {
        let src = r#"
            struct Point { records: u64, devices: Vec<u64>, epoch: u64 }
            impl Point {
                fn capture(&self) -> Point {
                    Point { records: self.records, devices: self.devices.clone() }
                }
            }
            struct Cursor { base: u64, committed: u64 }
            impl Cursor {
                fn delta_apply(&mut self, base: u64) {
                    *self = Cursor { base, committed: self.committed };
                }
            }
        "#;
        let f = run_on(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].snippet, "Point.epoch");
    }

    #[test]
    fn complete_clone_impl_passes() {
        let src = r#"
            struct T { a: u64, b: Vec<u8> }
            impl Clone for T {
                fn clone(&self) -> Self {
                    T { a: self.a, b: self.b.clone() }
                }
            }
        "#;
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn delegating_and_constructor_bodies_are_skipped() {
        let src = r#"
            #[derive(Clone)]
            struct W { a: u64, b: u64 }
            impl W {
                fn fork(&self) -> Option<Box<W>> { Some(Box::new(self.clone())) }
            }
            struct R { s: [u64; 4], cached: u64 }
            impl R {
                fn new(seed: u64) -> R { R { s: [seed; 4], cached: 0 } }
                fn next(&mut self) -> u64 { self.cached }
                fn fork(&mut self) -> R { R::new(self.next()) }
            }
        "#;
        assert!(run_on(src).is_empty(), "{:?}", run_on(src));
    }

    #[test]
    fn cross_file_struct_resolution() {
        let def = SourceFile::new(
            CrateKey::Core,
            FileKind::Src,
            "crates/core/src/def.rs",
            "pub struct S { x: u64, y: u64 }",
        );
        let imp = SourceFile::new(
            CrateKey::Core,
            FileKind::Src,
            "crates/core/src/imp.rs",
            "impl Clone for S { fn clone(&self) -> S { S { x: self.x, y: 0 } } }",
        );
        let f = run_crate(&[&def, &imp]);
        assert!(f.is_empty(), "{f:?}");
        let imp_bad = SourceFile::new(
            CrateKey::Core,
            FileKind::Src,
            "crates/core/src/imp.rs",
            "impl Clone for S { fn clone(&self) -> S { S { x: self.x } } }",
        );
        let f = run_crate(&[&def, &imp_bad]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].snippet, "S.y");
    }
}
