//! A hand-rolled JSON emitter — the whole reason `bikron-obs` needs no
//! `serde`: the schema only ever nests objects/arrays of string, integer
//! and boolean fields, so a comma-and-indent tracker suffices. String
//! escaping lives in [`escape_into`], shared with the Chrome-trace
//! exporter so both writers emit identical, spec-valid JSON strings.
//!
//! The writer is public so sibling crates that speak the same stable,
//! sorted, pretty-printed dialect (notably `bikron-serve`'s HTTP
//! responses) reuse one escaping implementation instead of growing their
//! own.

use std::fmt::Write as _;

/// Append `s` to `out` with JSON string escaping: `"` and `\` are
/// backslash-escaped, the common control characters get their two-byte
/// forms (`\n`, `\r`, `\t`, `\u{8}` → `\b`, `\u{c}` → `\f`), every other
/// control character below U+0020 becomes `\u00XX`, and all other
/// characters (including non-ASCII) pass through verbatim as UTF-8.
///
/// Every character that needs escaping is ASCII, so the scan runs over
/// bytes and copies each run of plain text with one `push_str`: a string
/// that needs no escaping costs one scan and one copy.
pub fn escape_into(out: &mut String, s: &str) {
    let mut plain = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        // `None`: a control character without a short form.
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x08 => Some("\\b"),
            0x0c => Some("\\f"),
            0..=0x1f => None,
            _ => continue,
        };
        // `b` is ASCII, so `i` is a char boundary.
        out.push_str(&s[plain..i]);
        match short {
            Some(escaped) => out.push_str(escaped),
            None => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
}

/// Render the decimal digits of `value` into the end of `buf` and return
/// them, so callers writing a `String` or a byte buffer share one digit
/// loop and allocate nothing.
pub fn u64_digits(mut value: u64, buf: &mut [u8; 20]) -> &[u8] {
    // u64::MAX has 20 digits.
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    &buf[at..]
}

/// Append the decimal digits of `value` to `out` without an intermediate
/// `String`.
fn push_u64(out: &mut String, value: u64) {
    let mut buf = [0u8; 20];
    out.extend(u64_digits(value, &mut buf).iter().map(|&d| char::from(d)));
}

/// Streaming writer for pretty-printed JSON objects and arrays.
///
/// Output is deterministic: two-space indent, members in insertion
/// order, a trailing newline from [`JsonWriter::finish`]. The caller is
/// responsible for balanced `open_*`/`close_*` calls.
///
/// A writer can also append to a caller-owned buffer
/// ([`JsonWriter::with_buffer`] / [`JsonWriter::into_buffer`]): values
/// written at depth 0 follow each other with nothing in between, so a
/// caller puts its own separators there between writers.
///
/// The writer keeps no per-container state: inside a container, the
/// byte before a member is the container's own `{` or `[` exactly when
/// the member is its first (no value ends in either), so the comma and
/// the closing newline follow from the buffer itself.
#[derive(Default)]
pub struct JsonWriter {
    out: String,
    depth: usize,
}

impl JsonWriter {
    /// New writer with an empty buffer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// Writer that appends to `out` after its existing content.
    pub fn with_buffer(out: String) -> Self {
        JsonWriter { out, depth: 0 }
    }

    /// Consume the writer, returning the buffer as written (no trailing
    /// newline).
    pub fn into_buffer(self) -> String {
        self.out
    }

    fn newline_indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    /// Whether the buffer ends with the opening bracket `open`: the
    /// innermost container, closed by that bracket's partner, is empty.
    fn ends_with_open(&self, open: u8) -> bool {
        self.out.as_bytes().last() == Some(&open)
    }

    fn begin_member(&mut self) {
        if self.depth == 0 {
            return;
        }
        if !self.ends_with_open(b'{') && !self.ends_with_open(b'[') {
            self.out.push(',');
        }
        self.newline_indent();
    }

    /// Open a `{` container; the next member call writes inside it.
    pub fn open_object(&mut self) {
        self.out.push('{');
        self.depth += 1;
    }

    /// Close the innermost object.
    pub fn close_object(&mut self) {
        self.close(b'{', '}');
    }

    /// Open a `[` container.
    pub fn open_array(&mut self) {
        self.out.push('[');
        self.depth += 1;
    }

    /// Close the innermost array.
    pub fn close_array(&mut self) {
        self.close(b'[', ']');
    }

    fn close(&mut self, open: u8, close: char) {
        let empty = self.ends_with_open(open);
        self.depth -= 1;
        if !empty {
            self.newline_indent();
        }
        self.out.push(close);
    }

    /// Begin an array element (objects call `open_object` right after).
    pub fn array_element(&mut self) {
        self.begin_member();
    }

    /// Bare `u64` array element.
    pub fn u64_element(&mut self, value: u64) {
        self.begin_member();
        push_u64(&mut self.out, value);
    }

    /// Bare string array element, escaped.
    pub fn string_element(&mut self, value: &str) {
        self.begin_member();
        self.push_string(value);
    }

    /// Write `"key": ` and leave the cursor ready for a value or
    /// container.
    pub fn key(&mut self, key: &str) {
        self.begin_member();
        self.push_string(key);
        self.out.push_str(": ");
    }

    /// `"key": "value"` with both sides escaped.
    pub fn string_field(&mut self, key: &str, value: &str) {
        self.key(key);
        self.push_string(value);
    }

    /// `"key": value` for an unsigned integer.
    pub fn u64_field(&mut self, key: &str, value: u64) {
        self.key(key);
        push_u64(&mut self.out, value);
    }

    /// `"key": value` for a float, in Rust's shortest round-trip `{}`
    /// form (so `1.0` prints as `1`, still valid JSON). Non-finite
    /// values have no JSON spelling and become `null`.
    pub fn f64_field(&mut self, key: &str, value: f64) {
        self.key(key);
        if value.is_finite() {
            write!(self.out, "{value}").expect("writing to a String cannot fail");
        } else {
            self.out.push_str("null");
        }
    }

    /// `"key": true|false`.
    pub fn bool_field(&mut self, key: &str, value: bool) {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// `"key": null`.
    pub fn null_field(&mut self, key: &str) {
        self.key(key);
        self.out.push_str("null");
    }

    fn push_string(&mut self, s: &str) {
        self.out.push('"');
        escape_into(&mut self.out, s);
        self.out.push('"');
    }

    /// Consume the writer, returning the buffer with a trailing newline.
    pub fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn escape(s: &str) -> String {
        let mut out = String::new();
        escape_into(&mut out, s);
        out
    }

    /// The char-by-char escaper `escape_into` must agree with.
    fn escape_reference(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out
    }

    /// Characters that exercise every escaping class: controls, quote,
    /// backslash, plain ASCII, DEL, and two-, three- and four-byte UTF-8.
    fn arb_text() -> impl Strategy<Value = String> {
        const EXTRA: [char; 5] = ['\u{7f}', 'ï', '✓', '🦋', '\u{2028}'];
        proptest::collection::vec(0u32..(0x80 + EXTRA.len() as u32), 0..48).prop_map(|codes| {
            codes
                .into_iter()
                .map(|c| match c.checked_sub(0x80) {
                    Some(i) => EXTRA[i as usize],
                    None => char::from_u32(c).expect("ASCII"),
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The byte-run escaper equals the char-by-char reference, on
        /// its own and appended after existing text.
        #[test]
        fn escape_matches_the_char_by_char_reference(s in arb_text()) {
            prop_assert_eq!(escape(&s), escape_reference(&s));
            let mut out = String::from("prefix");
            escape_into(&mut out, &s);
            prop_assert_eq!(out, format!("prefix{}", escape_reference(&s)));
        }
    }

    /// The writer as it was before it dropped its per-container
    /// `has_member` stack, kept as the byte-level reference.
    #[derive(Default)]
    struct ReferenceWriter {
        out: String,
        depth: usize,
        has_member: Vec<bool>,
    }

    impl ReferenceWriter {
        fn newline_indent(&mut self) {
            self.out.push('\n');
            for _ in 0..self.depth {
                self.out.push_str("  ");
            }
        }
        fn begin_member(&mut self) {
            if let Some(last) = self.has_member.last_mut() {
                if *last {
                    self.out.push(',');
                }
                *last = true;
            }
            if self.depth > 0 {
                self.newline_indent();
            }
        }
        fn open(&mut self, bracket: char) {
            self.out.push(bracket);
            self.depth += 1;
            self.has_member.push(false);
        }
        fn close(&mut self, bracket: char) {
            let had = self.has_member.pop().unwrap_or(false);
            self.depth -= 1;
            if had {
                self.newline_indent();
            }
            self.out.push(bracket);
        }
        fn push_string(&mut self, s: &str) {
            self.out.push('"');
            escape_into(&mut self.out, s);
            self.out.push('"');
        }
        fn key(&mut self, key: &str) {
            self.begin_member();
            self.push_string(key);
            self.out.push_str(": ");
        }
    }

    /// Drive both writers through the document that `ops` spells: each
    /// op picks one of the calls valid where the document stands, so
    /// every sequence is a balanced document of random nesting. Strings
    /// (keys and values alike) come from `texts`.
    fn write_both(ops: &[u32], texts: &[String]) -> (String, String) {
        let mut new = JsonWriter::with_buffer(String::from("prefix"));
        let mut old = ReferenceWriter {
            out: String::from("prefix"),
            ..ReferenceWriter::default()
        };
        // Innermost container last: true for an object.
        let mut stack: Vec<bool> = Vec::new();
        let text = |i: u32| texts[i as usize % texts.len()].as_str();
        for (at, &op) in ops.iter().enumerate() {
            let t = text(op / 16 + at as u32);
            let number = u64::from(op).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (op % 64);
            let Some(&in_object) = stack.last() else {
                // Depth 0: a separator, or a new top-level container.
                if op % 3 == 0 {
                    let mut out = new.into_buffer();
                    out.push_str(",\n");
                    new = JsonWriter::with_buffer(out);
                    old.out.push_str(",\n");
                }
                let object = op % 2 == 0;
                if object {
                    new.open_object();
                    old.open('{');
                } else {
                    new.open_array();
                    old.open('[');
                }
                stack.push(object);
                continue;
            };
            if op % 8 == 7 {
                stack.pop();
                if in_object {
                    new.close_object();
                    old.close('}');
                } else {
                    new.close_array();
                    old.close(']');
                }
                continue;
            }
            if in_object {
                match op % 8 {
                    0 => {
                        new.string_field(t, text(op));
                        old.key(t);
                        old.push_string(text(op));
                    }
                    1 => {
                        new.u64_field(t, number);
                        old.key(t);
                        old.out.push_str(&number.to_string());
                    }
                    2 => {
                        new.bool_field(t, op % 16 < 8);
                        old.key(t);
                        old.out.push_str(if op % 16 < 8 { "true" } else { "false" });
                    }
                    3 => {
                        new.null_field(t);
                        old.key(t);
                        old.out.push_str("null");
                    }
                    4 => {
                        let v = number as f64 / 7.0;
                        new.f64_field(t, v);
                        old.key(t);
                        old.out.push_str(&format!("{v}"));
                    }
                    5 => {
                        new.key(t);
                        new.open_object();
                        old.key(t);
                        old.open('{');
                        stack.push(true);
                    }
                    _ => {
                        new.key(t);
                        new.open_array();
                        old.key(t);
                        old.open('[');
                        stack.push(false);
                    }
                }
            } else {
                match op % 8 {
                    0 | 1 => {
                        new.u64_element(number);
                        old.begin_member();
                        old.out.push_str(&number.to_string());
                    }
                    2 | 3 => {
                        new.string_element(t);
                        old.begin_member();
                        old.push_string(t);
                    }
                    4 | 5 => {
                        new.array_element();
                        new.open_object();
                        old.begin_member();
                        old.open('{');
                        stack.push(true);
                    }
                    _ => {
                        new.array_element();
                        new.open_array();
                        old.begin_member();
                        old.open('[');
                        stack.push(false);
                    }
                }
            }
        }
        while let Some(object) = stack.pop() {
            if object {
                new.close_object();
                old.close('}');
            } else {
                new.close_array();
                old.close(']');
            }
        }
        old.out.push('\n');
        (new.finish(), old.out)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The stateless writer emits the reference writer's bytes over
        /// random nestings, keys that need escaping, and raw separators
        /// between top-level values.
        #[test]
        fn writer_matches_the_reference_over_random_nestings(
            ops in proptest::collection::vec(0u32..4096, 0..160),
            texts in proptest::collection::vec(arb_text(), 1..6),
        ) {
            let (new, old) = write_both(&ops, &texts);
            prop_assert_eq!(new, old);
        }
    }

    /// Forty levels of nesting indent two spaces a level.
    #[test]
    fn deep_nesting_matches_the_reference() {
        let ops: Vec<u32> = std::iter::repeat_n(5, 40).chain([1, 7, 7]).collect();
        let (new, old) = write_both(&ops, &["k".to_string()]);
        assert_eq!(new, old);
        assert!(new.contains(&format!("\n{}\"k\": ", "  ".repeat(40))));
    }

    /// Integers render without `to_string()`; the edges of the digit
    /// loop and the longest value are pinned.
    #[test]
    fn integers_golden() {
        let mut w = JsonWriter::new();
        w.open_object();
        for (key, value) in [("zero", 0), ("nine", 9), ("ten", 10), ("max", u64::MAX)] {
            w.u64_field(key, value);
        }
        w.key("elements");
        w.open_array();
        for value in [0, 9, 10, u64::MAX] {
            w.u64_element(value);
        }
        w.close_array();
        w.close_object();
        let expect = concat!(
            "{\n",
            "  \"zero\": 0,\n",
            "  \"nine\": 9,\n",
            "  \"ten\": 10,\n",
            "  \"max\": 18446744073709551615,\n",
            "  \"elements\": [\n",
            "    0,\n",
            "    9,\n",
            "    10,\n",
            "    18446744073709551615\n",
            "  ]\n",
            "}\n",
        );
        assert_eq!(w.finish(), expect);
    }

    /// A writer appending to a caller's buffer keeps what was there,
    /// puts nothing between depth-0 values, and adds no newline.
    #[test]
    fn appends_to_a_caller_owned_buffer() {
        let mut out = String::from("[");
        for v in [1, 2] {
            out.push('\n');
            let mut w = JsonWriter::with_buffer(out);
            w.open_object();
            w.u64_field("v", v);
            w.close_object();
            out = w.into_buffer();
        }
        out.push_str("\n]");
        assert_eq!(out, "[\n{\n  \"v\": 1\n}\n{\n  \"v\": 2\n}\n]");
    }

    /// Golden escaping table: every class the writer must handle —
    /// quotes, backslashes, named control escapes, arbitrary control
    /// characters, and pass-through non-ASCII.
    #[test]
    fn escape_golden() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape(r#"say "hi""#), r#"say \"hi\""#);
        assert_eq!(escape(r"C:\dir\file"), r"C:\\dir\\file");
        assert_eq!(escape("a\nb\rc\td"), r"a\nb\rc\td");
        assert_eq!(escape("\u{8}\u{c}"), r"\b\f");
        assert_eq!(escape("\u{0}\u{1}\u{1f}"), r"\u0000\u0001\u001f");
        assert_eq!(escape("naïve ✓ 🦋"), "naïve ✓ 🦋");
        // The classic trap: a backslash before a quote must yield four
        // characters (`\\\"`), not an escaped-quote-eating `\\"`.
        assert_eq!(escape(r#"\""#), r#"\\\""#);
        // U+007F (DEL) is not a JSON control character; pass through.
        assert_eq!(escape("\u{7f}"), "\u{7f}");
    }

    #[test]
    fn writer_escapes_keys_and_values() {
        let mut w = JsonWriter::new();
        w.open_object();
        w.string_field("path\\key", "line1\nline2 \"q\"");
        w.close_object();
        let json = w.finish();
        assert_eq!(
            json,
            "{\n  \"path\\\\key\": \"line1\\nline2 \\\"q\\\"\"\n}\n"
        );
    }

    #[test]
    fn arrays_nest_in_objects() {
        let mut w = JsonWriter::new();
        w.open_object();
        w.key("buckets");
        w.open_array();
        for (le, n) in [(1u64, 2u64), (3, 4)] {
            w.array_element();
            w.open_object();
            w.u64_field("le", le);
            w.u64_field("count", n);
            w.close_object();
        }
        w.close_array();
        w.close_object();
        let json = w.finish();
        let expect = concat!(
            "{\n",
            "  \"buckets\": [\n",
            "    {\n",
            "      \"le\": 1,\n",
            "      \"count\": 2\n",
            "    },\n",
            "    {\n",
            "      \"le\": 3,\n",
            "      \"count\": 4\n",
            "    }\n",
            "  ]\n",
            "}\n",
        );
        assert_eq!(json, expect);
    }

    /// Float fields use the shortest round-trip form and `null` out the
    /// spellings JSON lacks.
    #[test]
    fn f64_fields_golden() {
        let mut w = JsonWriter::new();
        w.open_object();
        w.f64_field("whole", 1.0);
        w.f64_field("frac", 0.25);
        w.f64_field("third", 1.0 / 3.0);
        w.f64_field("nan", f64::NAN);
        w.f64_field("inf", f64::INFINITY);
        w.close_object();
        let expect = concat!(
            "{\n",
            "  \"whole\": 1,\n",
            "  \"frac\": 0.25,\n",
            "  \"third\": 0.3333333333333333,\n",
            "  \"nan\": null,\n",
            "  \"inf\": null\n",
            "}\n",
        );
        assert_eq!(w.finish(), expect);
    }

    #[test]
    fn empty_containers() {
        let mut w = JsonWriter::new();
        w.open_object();
        w.key("empty_obj");
        w.open_object();
        w.close_object();
        w.key("empty_arr");
        w.open_array();
        w.close_array();
        w.close_object();
        assert_eq!(
            w.finish(),
            "{\n  \"empty_obj\": {},\n  \"empty_arr\": []\n}\n"
        );
    }
}
