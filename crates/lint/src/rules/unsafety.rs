//! Unsafe-audit rules: `unsafe` is confined to `crates/par`, and every
//! unsafe block or impl there carries a `// SAFETY:` justification.

use super::{FileCtx, Finding};
use crate::lexer::TokKind;

/// How many lines above an `unsafe` token a `// SAFETY:` comment may
/// sit and still count as "immediately preceding". Three covers the
/// common shape where the unsafe expression is nested one or two lines
/// into the statement the comment annotates.
const SAFETY_WINDOW: u32 = 3;

/// Runs both unsafe rules in one token scan.
///
/// * `unsafe-code` — any `unsafe` outside `crates/par`. The pool is
///   the single crate with an audited unsafe surface
///   (docs/CONCURRENCY.md); everything else is `unsafe_code = "deny"`
///   via the workspace lints table, and this rule catches what rustc
///   cannot see (e.g. code behind `cfg` gates CI never compiles).
/// * `safety-comment` — an `unsafe` *block* (`unsafe {`) or *impl*
///   (`unsafe impl`) without a `// SAFETY:` comment on the same line
///   or within `SAFETY_WINDOW` lines above. `unsafe fn` declarations
///   are excluded: their contract lives in the `# Safety` doc section,
///   which rustdoc and clippy (`missing_safety_doc`) already police.
pub fn unsafe_rules(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for (i, t) in ctx.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        if ctx.krate != "par" {
            out.push(ctx.finding(
                t.line,
                "unsafe-code",
                "`unsafe` outside crates/par — the pool is the only audited unsafe \
                 surface; express this safely or move it behind a cawo_par primitive",
            ));
        }
        let next = ctx.tokens.get(i + 1);
        let is_block = next.is_some_and(|n| n.is_punct('{'));
        let is_impl = next.is_some_and(|n| n.is_ident("impl") || n.is_ident("trait"));
        if !(is_block || is_impl) {
            continue; // `unsafe fn` — see the doc comment above
        }
        let lo = t.line.saturating_sub(SAFETY_WINDOW);
        let documented = ctx
            .comments
            .iter()
            .any(|c| c.text.contains("SAFETY:") && c.end_line >= lo && c.end_line <= t.line);
        if !documented {
            let what = if is_block { "block" } else { "impl" };
            out.push(ctx.finding(
                t.line,
                "safety-comment",
                format!(
                    "`unsafe` {what} without a `// SAFETY:` comment in the {SAFETY_WINDOW} \
                     lines above — state the invariant that makes it sound"
                ),
            ));
        }
    }
}
