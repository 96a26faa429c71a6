//! A small helper for generating assembly source programmatically.
//!
//! The co-design kernels are generated code: Rust functions assemble the
//! DPD-unpack loop, the multiplicand-multiple loop and so on, then hand the
//! text to [`crate::assemble`]. `SourceBuilder` keeps that generation tidy
//! (fresh label allocation, uniform indentation) and keeps the emitted text
//! human-readable for debugging.

use std::fmt::Write as _;

/// An assembly source accumulator with fresh-label support.
///
/// # Example
///
/// ```
/// use riscv_asm::SourceBuilder;
///
/// let mut s = SourceBuilder::new();
/// s.label("start");
/// s.push("li a0, 0");
/// let done = s.fresh_label("done");
/// s.push(format!("beqz a0, {done}"));
/// s.push("addi a0, a0, 1");
/// s.label(&done);
/// s.push("li a7, 93");
/// s.push("ecall");
/// let program = riscv_asm::assemble(&s.finish()).unwrap();
/// assert!(program.symbol("done.0").is_some());
/// ```
#[derive(Debug, Default, Clone)]
pub struct SourceBuilder {
    text: String,
    next_label: u32,
}

impl SourceBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        SourceBuilder::default()
    }

    /// Appends one instruction or directive line (indented).
    pub fn push(&mut self, line: impl AsRef<str>) {
        let _ = writeln!(self.text, "    {}", line.as_ref());
    }

    /// Appends a label definition (unindented).
    pub fn label(&mut self, name: &str) {
        let _ = writeln!(self.text, "{name}:");
    }

    /// Appends a comment line.
    pub fn comment(&mut self, text: &str) {
        let _ = writeln!(self.text, "    # {text}");
    }

    /// Appends a blank line (purely cosmetic).
    pub fn blank(&mut self) {
        self.text.push('\n');
    }

    /// Returns a unique label derived from `stem` (e.g. `loop.3`).
    #[must_use]
    pub fn fresh_label(&mut self, stem: &str) -> String {
        let label = format!("{stem}.{}", self.next_label);
        self.next_label += 1;
        label
    }

    /// The accumulated source text.
    #[must_use]
    pub fn finish(self) -> String {
        self.text
    }

    /// Borrows the text accumulated so far.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_labelled_source() {
        let mut s = SourceBuilder::new();
        s.comment("demo");
        s.label("start");
        s.push("nop");
        let l1 = s.fresh_label("x");
        let l2 = s.fresh_label("x");
        assert_ne!(l1, l2);
        s.label(&l1);
        s.label(&l2);
        s.push("ecall");
        let text = s.finish();
        assert!(text.contains("start:\n"));
        assert!(text.contains("x.0:"));
        assert!(text.contains("x.1:"));
    }
}
