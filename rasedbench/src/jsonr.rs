//! A small JSON reader for the server's `/api/metrics` document and the
//! API's `stats` objects.
//!
//! Counters are addressed by section path (`response_cache.invalidations`,
//! `admission.shed_client_cap`): the same key name appears in several
//! sections of `/api/metrics` (`invalidations` under `shards[]`, `ingest`
//! and `response_cache`; `epoch` three times), so a first-match text scan
//! cannot tell them apart.

/// A parsed JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parse a complete document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Follow a dotted path of object keys (`a.b.c`).
    pub fn path(&self, path: &str) -> Option<&Value> {
        path.split('.').try_fold(self, |v, k| v.get(k))
    }

    /// The number at `path`.
    pub fn num(&self, path: &str) -> Option<f64> {
        match self.path(path)? {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number at `path`, or an error naming the path.
    pub fn req(&self, path: &str) -> Result<f64, String> {
        self.num(path)
            .ok_or_else(|| format!("missing numeric field `{path}`"))
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while matches!(self.s.get(self.i), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.s.get(self.i..self.i + word.len()) == Some(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of document".into()),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.eat(b':')?;
            members.push((k, self.value()?));
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.s.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.i;
            while !matches!(self.s.get(self.i), Some(b'"' | b'\\') | None) {
                self.i += 1;
            }
            out.push_str(
                std::str::from_utf8(self.s.get(start..self.i).unwrap_or_default())
                    .map_err(|e| e.to_string())?,
            );
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = self.s.get(self.i + 1).copied();
                    self.i += 2;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at offset {}", self.i))?;
                            self.i += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while matches!(
            self.s.get(self.i),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.i += 1;
        }
        std::str::from_utf8(self.s.get(start..self.i).unwrap_or_default())
            .ok()
            .and_then(|t| t.parse().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_paths_disambiguate_repeated_keys() {
        let doc = r#"{"shards":[{"epoch":3,"invalidations":9}],
            "ingest":{"epoch":4,"invalidations":2},
            "response_cache":{"enabled":true,"invalidations":17,"hits":5},
            "admission":{"per_client_cap":null,"shed_client_cap":0}}"#;
        let v = Value::parse(doc).unwrap();
        assert_eq!(v.num("response_cache.invalidations"), Some(17.0));
        assert_eq!(v.num("ingest.invalidations"), Some(2.0));
        assert_eq!(v.num("ingest.epoch"), Some(4.0));
        assert_eq!(v.num("admission.shed_client_cap"), Some(0.0));
        assert_eq!(v.path("admission.per_client_cap"), Some(&Value::Null));
        assert_eq!(v.num("response_cache.missing"), None);
        assert!(v.req("nope.nothing").is_err());
    }

    #[test]
    fn strings_numbers_and_errors() {
        let v = Value::parse(r#"{"s":"a\"bA","n":-1.5e3,"a":[1,[],{}]}"#).unwrap();
        assert_eq!(v.get("s"), Some(&Value::Str("a\"bA".into())));
        assert_eq!(v.num("n"), Some(-1500.0));
        assert!(Value::parse(r#"{"a":1"#).is_err());
        assert!(Value::parse(r#"{"a":1} x"#).is_err());
        assert!(Value::parse("").is_err());
    }
}
