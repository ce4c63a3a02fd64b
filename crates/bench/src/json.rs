//! A minimal JSON reader for the benchmark result files.
//!
//! The build environment is offline (no `serde_json`), and the only JSON
//! this repository ever parses is its own `BENCH_serving.json` /
//! `BENCH_baseline.json` — flat objects of numbers, booleans and strings
//! with one level of nesting.  This module parses exactly that subset into
//! a flat `BTreeMap` with dotted keys (`"chat.kv_hit_rate"`), which is all
//! the perf gate needs to diff two runs.

use std::collections::BTreeMap;

/// A leaf value of the benchmark files.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// Any JSON number (integers included).
    Number(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A string literal (no escape handling beyond `\"` and `\\`).
    Text(String),
}

impl JsonValue {
    /// The numeric value, if this is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> String {
        format!("{message} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(c @ (b'"' | b'\\')) => {
                            out.push(c as char);
                            self.pos += 1;
                        }
                        _ => return Err(self.error("unsupported escape")),
                    }
                }
                Some(c) => {
                    out.push(c as char);
                    self.pos += 1;
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.error("malformed number"))
    }

    fn parse_literal(&mut self, literal: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected {literal}")))
        }
    }

    fn parse_value(
        &mut self,
        prefix: &str,
        out: &mut BTreeMap<String, JsonValue>,
    ) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(prefix, out),
            Some(b'"') => {
                let text = self.parse_string()?;
                out.insert(prefix.to_string(), JsonValue::Text(text));
                Ok(())
            }
            Some(b't') => {
                self.parse_literal("true")?;
                out.insert(prefix.to_string(), JsonValue::Bool(true));
                Ok(())
            }
            Some(b'f') => {
                self.parse_literal("false")?;
                out.insert(prefix.to_string(), JsonValue::Bool(false));
                Ok(())
            }
            Some(b'-' | b'0'..=b'9') => {
                let number = self.parse_number()?;
                out.insert(prefix.to_string(), JsonValue::Number(number));
                Ok(())
            }
            _ => Err(self.error(
                "unsupported value (the bench files hold objects, numbers, booleans and strings)",
            )),
        }
    }

    fn parse_object(
        &mut self,
        prefix: &str,
        out: &mut BTreeMap<String, JsonValue>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            let path = if prefix.is_empty() {
                key
            } else {
                format!("{prefix}.{key}")
            };
            self.skip_ws();
            self.expect(b':')?;
            self.parse_value(&path, out)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a benchmark result file into a flat map with dotted keys.
pub fn parse_flat(text: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let mut out = BTreeMap::new();
    parser.skip_ws();
    parser.parse_object("", &mut out)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing content"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_objects_with_dotted_keys() {
        let text = r#"{
            "quick": false,
            "speedup": 4.07,
            "name": "run",
            "chat": { "kv_hit_rate": 1.0, "sessions": 6 },
            "empty": {}
        }"#;
        let map = parse_flat(text).unwrap();
        assert_eq!(map["quick"], JsonValue::Bool(false));
        assert_eq!(map["speedup"], JsonValue::Number(4.07));
        assert_eq!(map["name"], JsonValue::Text("run".into()));
        assert_eq!(map["chat.kv_hit_rate"].as_number(), Some(1.0));
        assert_eq!(map["chat.sessions"].as_number(), Some(6.0));
        assert_eq!(map.len(), 5);
    }

    #[test]
    fn parses_negative_and_exponent_numbers() {
        let map = parse_flat(r#"{"a": -1.5, "b": 2e3, "c": 0.001}"#).unwrap();
        assert_eq!(map["a"].as_number(), Some(-1.5));
        assert_eq!(map["b"].as_number(), Some(2000.0));
        assert_eq!(map["c"].as_number(), Some(0.001));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_flat("{").is_err());
        assert!(parse_flat(r#"{"a"}"#).is_err());
        assert!(parse_flat(r#"{"a": [1, 2]}"#).is_err());
        assert!(parse_flat(r#"{"a": 1} trailing"#).is_err());
    }

    #[test]
    fn round_trips_the_real_bench_format() {
        let text = r#"{
  "quick": false,
  "plan_cache_speedup": 4.07,
  "cold_heavy": {
    "rate_rps": 0.06,
    "p95_ttft_s_batched": 6.064
  }
}
"#;
        let map = parse_flat(text).unwrap();
        assert_eq!(
            map["cold_heavy.p95_ttft_s_batched"].as_number(),
            Some(6.064)
        );
    }
}
