//! The JSON rendering shared by `--bin bench` and the `archgraphd` wire
//! protocol. The daemon's streamed `sim` fingerprints must equal the
//! bench JSON byte for byte, so both render through [`render_sim`].

use std::fmt::Write as _;

/// Escape a string for a JSON literal (quotes, backslashes, control
/// characters — panic messages can contain anything).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a `sim` fingerprint object: `{ "cycles": 123, "issued": 456 }`.
/// Labels are bench [`crate::Fingerprint`] names (`&'static str`) or the
/// daemon's decoded `String`s.
pub fn render_sim<K: AsRef<str>>(pairs: &[(K, u64)]) -> String {
    let mut out = String::from("{ ");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {v}", k.as_ref());
    }
    out.push_str(" }");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_backslashes_and_control_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\r\t\u{1}"), "\\r\\t\\u0001");
        assert_eq!(escape("ünïcode 😀"), "ünïcode 😀");
    }
}
