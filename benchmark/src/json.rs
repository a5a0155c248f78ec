//! The few lines of JSON the benchmark writes (no external crates offline).

use std::fmt;

/// A JSON value. Objects keep insertion order so output is stable.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A finite number, written with every digit `f64` carries.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            // JSON has no NaN/inf; a metric that is one is a harness bug
            // and must not produce an unparsable line.
            Json::Num(n) if !n.is_finite() => f.write_str("null"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A reader for what [`Json`] writes — enough JSON to round-trip the
/// writer in tests and to check `BENCHMARK.json` against the metric
/// tables compiled into the binary.
#[cfg(test)]
pub mod parse {
    use super::Json;

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i == p.s.len() {
            Ok(v)
        } else {
            Err(format!("trailing bytes at {}", p.i))
        }
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
                self.i += 1;
            }
        }

        fn eat(&mut self, lit: &str) -> bool {
            let hit = self.s[self.i..].starts_with(lit.as_bytes());
            if hit {
                self.i += lit.len();
            }
            hit
        }

        fn value(&mut self) -> Result<Json, String> {
            self.ws();
            match self.s.get(self.i) {
                Some(b'{') => {
                    self.i += 1;
                    let mut fields = Vec::new();
                    loop {
                        self.ws();
                        if self.eat("}") {
                            return Ok(Json::Obj(fields));
                        }
                        if !fields.is_empty() && !self.eat(",") {
                            return Err(format!("expected ',' at {}", self.i));
                        }
                        self.ws();
                        let key = self.string()?;
                        self.ws();
                        if !self.eat(":") {
                            return Err(format!("expected ':' at {}", self.i));
                        }
                        fields.push((key, self.value()?));
                    }
                }
                Some(b'[') => {
                    self.i += 1;
                    let mut items = Vec::new();
                    loop {
                        self.ws();
                        if self.eat("]") {
                            return Ok(Json::Arr(items));
                        }
                        if !items.is_empty() && !self.eat(",") {
                            return Err(format!("expected ',' at {}", self.i));
                        }
                        items.push(self.value()?);
                    }
                }
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
                Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
                Some(_) => {
                    let start = self.i;
                    while self
                        .s
                        .get(self.i)
                        .is_some_and(|b| b"+-.eE".contains(b) || b.is_ascii_digit())
                    {
                        self.i += 1;
                    }
                    std::str::from_utf8(&self.s[start..self.i])
                        .ok()
                        .and_then(|t| t.parse().ok())
                        .map(Json::Num)
                        .ok_or_else(|| format!("bad number at {start}"))
                }
                None => Err("unexpected end".into()),
            }
        }

        fn string(&mut self) -> Result<String, String> {
            if !self.eat("\"") {
                return Err(format!("expected string at {}", self.i));
            }
            let mut out = Vec::new();
            loop {
                match self.s.get(self.i).copied() {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.i += 1;
                        return String::from_utf8(out).map_err(|e| e.to_string());
                    }
                    Some(b'\\') => {
                        let esc = self.s.get(self.i + 1).copied();
                        self.i += 2;
                        match esc {
                            Some(b'n') => out.push(b'\n'),
                            Some(b't') => out.push(b'\t'),
                            Some(b'r') => out.push(b'\r'),
                            Some(b'u') => {
                                let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
                                    .map_err(|e| e.to_string())?;
                                let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                let c = char::from_u32(cp).ok_or("bad \\u escape")?;
                                out.extend_from_slice(c.to_string().as_bytes());
                                self.i += 4;
                            }
                            Some(c) => out.push(c),
                            None => return Err("dangling escape".into()),
                        }
                    }
                    Some(b) => {
                        out.push(b);
                        self.i += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips_through_the_reader() {
        let v = Json::Obj(vec![
            ("correct".into(), Json::Bool(true)),
            ("attempted".into(), Json::Num(1000.0)),
            ("long".into(), Json::Num(0.123_456_789_012_345_68)),
            ("tiny".into(), Json::Num(1.25e-7)),
            ("neg".into(), Json::Num(-1.0)),
            ("text".into(), Json::Str("a \"q\" \\ \n\t \u{1} é".into())),
            (
                "nested".into(),
                Json::Arr(vec![
                    Json::Arr(vec![]),
                    Json::Obj(vec![]),
                    Json::Bool(false),
                ]),
            ),
        ]);
        let text = v.to_string();
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(parse::parse(&text).expect("parses"), v);
    }

    #[test]
    fn numbers_keep_all_their_digits_and_whole_numbers_stay_whole() {
        assert_eq!(Json::Num(1.2034).to_string(), "1.2034");
        assert_eq!(Json::Num(0.1 + 0.2).to_string(), "0.30000000000000004");
        assert_eq!(Json::Num(1000.0).to_string(), "1000");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }
}
