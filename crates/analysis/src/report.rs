//! Minimal plain-text / markdown table rendering used by the report
//! binaries, plus [`Json`], the one JSON writer behind every `--json`
//! report (`trafficlab`, `routecheck`, `routeserve`) and every
//! `BENCH_*.json` snapshot — the workspace builds offline, so there is no
//! serde.

use std::fmt::{self, Write as _};

/// A simple table: a header row and data rows, rendered as GitHub-flavoured
/// markdown or as aligned plain text.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; it must have the same arity as the header.
    pub fn push_row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, row: I) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row arity must match the header"
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            self.header
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Renders the table as aligned plain text.
    pub fn to_plain(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (c, h) in self.header.iter().enumerate() {
            widths[c] = widths[c].max(h.len());
        }
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let render = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(c, s)| format!("{s:<width$}", width = widths[c]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&render(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a bit count with a thousands separator for readability.
pub fn fmt_bits(bits: u64) -> String {
    let s = bits.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(c);
    }
    out
}

/// A JSON value.  Objects keep their keys in the order given.
///
/// `Display` renders with one layout rule: a container whose children are
/// all scalars prints on one line (`{"a": 1, "b": "x"}`), and any other
/// container puts one child per line, indented two spaces per level.
/// Floats print as their shortest round-trip decimal; NaN and infinities,
/// which JSON cannot carry, print as `null`.  The rendering has no trailing
/// newline; writers of a whole document add one.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Any Rust integer, printed exactly.
    Int(i128),
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object with its pairs in the order given.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    fn render(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let (open, close, children): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return f.write_str("null"),
            Json::Bool(b) => return write!(f, "{b}"),
            Json::Int(i) => return write!(f, "{i}"),
            Json::Float(x) => return f.write_str(&json_f64(*x)),
            Json::Str(s) => return write!(f, "\"{}\"", json_escape(s)),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(pairs) => (
                '{',
                '}',
                pairs.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let one_line = children
            .iter()
            .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
        // Off one line, each child sits on its own line, two spaces deeper
        // than the brackets.
        let line = |level: usize| format!("\n{:1$}", "", 2 * level);
        let (sep, pad, end) = match one_line {
            true => (", ", String::new(), String::new()),
            false => (",", line(depth + 1), line(depth)),
        };
        f.write_char(open)?;
        for (i, (key, value)) in children.into_iter().enumerate() {
            write!(f, "{}{pad}", if i == 0 { "" } else { sep })?;
            if let Some(key) = key {
                write!(f, "\"{}\": ", json_escape(key))?;
            }
            value.render(f, depth + 1)?;
        }
        write!(f, "{end}{close}")
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f, 0)
    }
}

/// `From` conversions that wrap one value in one variant.
macro_rules! json_from {
    ($wrap:expr; $($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                $wrap(v)
            }
        }
    )*};
}
json_from!(Json::Bool; bool);
json_from!(Json::Float; f64);
json_from!(Json::Str; String);
json_from!(|s: &str| Json::Str(s.to_string()); &str);
json_from!(|v| Json::Int(i128::from(v)); u8, u16, u32, u64, i8, i16, i32, i64);
json_from!(|v| Json::Int(i128::try_from(v).expect("64-bit sizes fit i128")); usize, isize);

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        items.into_iter().collect()
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Escapes a string for inclusion in a JSON string literal (quotes not
/// included).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a float as a JSON number: finite values as their shortest
/// round-trip decimal, NaN and infinities as `null`.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Formats a float with a fixed number of decimals, trimming `-0.00`.
pub fn fmt_f64(x: f64, decimals: usize) -> String {
    let s = format!("{x:.decimals$}");
    if s.starts_with("-0.") && s[1..].parse::<f64>() == Ok(0.0) {
        s[1..].to_string()
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_f64_is_valid_json() {
        assert_eq!(json_f64(2.0), "2");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    /// Minimal JSON grammar check: one value, then only whitespace.
    fn is_valid_json(text: &str) -> bool {
        fn ws(b: &[u8], mut i: usize) -> usize {
            while i < b.len() && matches!(b[i], b' ' | b'\n' | b'\r' | b'\t') {
                i += 1;
            }
            i
        }
        fn string(b: &[u8], mut i: usize) -> Option<usize> {
            i += 1;
            while i < b.len() {
                match b[i] {
                    b'"' => return Some(i + 1),
                    b'\\' => match b.get(i + 1)? {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => i += 2,
                        b'u' if b.get(i + 2..i + 6)?.iter().all(u8::is_ascii_hexdigit) => i += 6,
                        _ => return None,
                    },
                    c if c < 0x20 => return None,
                    _ => i += 1,
                }
            }
            None
        }
        fn value(b: &[u8], i: usize) -> Option<usize> {
            let i = ws(b, i);
            match *b.get(i)? {
                b'"' => string(b, i),
                open @ (b'{' | b'[') => {
                    let close = if open == b'{' { b'}' } else { b']' };
                    let mut i = ws(b, i + 1);
                    if b.get(i) == Some(&close) {
                        return Some(i + 1);
                    }
                    loop {
                        if open == b'{' {
                            i = ws(b, i);
                            if b.get(i) != Some(&b'"') {
                                return None;
                            }
                            i = ws(b, string(b, i)?);
                            if b.get(i) != Some(&b':') {
                                return None;
                            }
                            i += 1;
                        }
                        i = ws(b, value(b, i)?);
                        match b.get(i)? {
                            b',' => i += 1,
                            &c if c == close => return Some(i + 1),
                            _ => return None,
                        }
                    }
                }
                _ => {
                    let end = (i..b.len())
                        .find(|&j| !(b[j].is_ascii_alphanumeric() || b"+-.".contains(&b[j])))
                        .unwrap_or(b.len());
                    let word = std::str::from_utf8(&b[i..end]).ok()?;
                    (matches!(word, "true" | "false" | "null") || word.parse::<f64>().is_ok())
                        .then_some(end)
                }
            }
        }
        let b = text.as_bytes();
        value(b, 0).is_some_and(|end| ws(b, end) == b.len())
    }

    #[test]
    fn validator_rejects_raw_control_characters() {
        assert!(is_valid_json("{\"a\": [1, 2.5e3, \"x\\ty\", null]}"));
        assert!(!is_valid_json("{\"a\": \"x\ty\"}"));
        assert!(!is_valid_json("{\"a\": \"x\ny\"}"));
        assert!(!is_valid_json("{\"a\" 1}"));
    }

    #[test]
    fn every_constructor_renders_valid_json() {
        let strings = ["a \"q\" b\\s", "tab\tline\nend\u{1}", "naïve → ∞", ""];
        let floats = [
            f64::NAN,
            f64::INFINITY,
            -f64::INFINITY,
            -0.0,
            1e-7,
            1e300,
            2.5,
        ];
        let leaf = |depth: usize| {
            Json::obj([
                ("depth", Json::from(depth)),
                ("strings", strings.iter().copied().collect()),
                ("floats", floats.iter().copied().collect()),
            ])
        };
        // Three levels of nesting below the document: object, array, leaf.
        let nested = Json::obj([("inner", vec![leaf(2), leaf(3)].into())]);
        let doc = Json::obj([
            ("u64", Json::from(u64::MAX)),
            ("i64", Json::from(i64::MIN)),
            ("bool", Json::from(false)),
            ("string", Json::from(String::from("own\"ed"))),
            ("none", Json::from(None::<f64>)),
            ("some", Json::from(Some("x"))),
            ("empty_obj", Json::obj(Vec::<(&str, Json)>::new())),
            ("empty_arr", Json::from(Vec::<u8>::new())),
            ("vec", Json::from(vec![1u32, 2, 3])),
            ("key \"quoted\"\n", Json::Null),
            ("nested", nested),
        ]);
        let text = doc.to_string();
        assert!(is_valid_json(&text), "{text}");
        for want in [
            "\"u64\": 18446744073709551615",
            "\"i64\": -9223372036854775808",
            "\"string\": \"own\\\"ed\"",
            "\"none\": null",
            "\"some\": \"x\"",
            "\"empty_obj\": {}",
            "\"empty_arr\": []",
            "\"vec\": [1, 2, 3]",
            "\"key \\\"quoted\\\"\\n\": null",
            "[\"a \\\"q\\\" b\\\\s\", \"tab\\tline\\nend\\u0001\", \"naïve → ∞\", \"\"]",
            "[null, null, null, -0, 0.0000001, 1000",
        ] {
            assert!(text.contains(want), "{want} missing from {text}");
        }
        // Shortest round trip: every finite float parses back to itself.
        for x in floats.into_iter().filter(|x| x.is_finite()) {
            assert_eq!(Json::from(x).to_string().parse::<f64>(), Ok(x));
        }
    }

    #[test]
    fn scalar_containers_print_on_one_line_and_others_one_child_per_line() {
        let row = Json::obj([("a", Json::from(1u8)), ("b", Json::from("x"))]);
        assert_eq!(row.to_string(), "{\"a\": 1, \"b\": \"x\"}");
        let doc = Json::obj([
            ("name", Json::from("t")),
            ("rows", vec![row.clone(), row].into()),
            ("empty", Json::from(Vec::<u8>::new())),
        ]);
        assert_eq!(
            doc.to_string(),
            "{\n  \"name\": \"t\",\n  \"rows\": [\n    {\"a\": 1, \"b\": \"x\"},\n    \
             {\"a\": 1, \"b\": \"x\"}\n  ],\n  \"empty\": []\n}"
        );
    }

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new(["a", "b"]);
        t.push_row(["1", "2"]);
        t.push_row(["x", "yy"]);
        let md = t.to_markdown();
        assert!(md.starts_with("| a | b |\n|---|---|\n"));
        assert!(md.contains("| x | yy |"));
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn plain_rendering_aligns_columns() {
        let mut t = Table::new(["name", "v"]);
        t.push_row(["x", "10"]);
        t.push_row(["longer", "7"]);
        let p = t.to_plain();
        let lines: Vec<&str> = p.lines().collect();
        assert_eq!(lines.len(), 4);
        // all data lines have the same width
        assert!(lines[2].trim_end().len() >= "longer".len());
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut t = Table::new(["a", "b"]);
        t.push_row(["only one"]);
    }

    #[test]
    fn bit_formatting() {
        assert_eq!(fmt_bits(0), "0");
        assert_eq!(fmt_bits(999), "999");
        assert_eq!(fmt_bits(1000), "1_000");
        assert_eq!(fmt_bits(1234567), "1_234_567");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(1.23456, 2), "1.23");
        assert_eq!(fmt_f64(-0.0001, 2), "0.00");
        assert_eq!(fmt_f64(-1.5, 1), "-1.5");
    }
}
