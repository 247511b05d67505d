//! A minimal `--flag value` argument parser (no external dependencies).

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone)]
pub struct Args {
    subcommand: String,
    options: BTreeMap<String, String>,
}

impl Args {
    /// Parses `argv[1..]`: the first token is the subcommand, the rest must
    /// be `--key value` pairs.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
        let mut it = argv.into_iter();
        let subcommand = it.next().ok_or("missing subcommand")?;
        let mut options = BTreeMap::new();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got `{key}`"))?
                .to_string();
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            if options.insert(key.clone(), value).is_some() {
                return Err(format!("--{key} given twice"));
            }
        }
        Ok(Args {
            subcommand,
            options,
        })
    }

    /// The subcommand name.
    pub fn subcommand(&self) -> &str {
        &self.subcommand
    }

    /// A required string option.
    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// An optional string option.
    pub fn optional(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// An optional parsed option with a default.
    pub fn parsed_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("bad --{key} `{v}`: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let a = Args::parse(argv("train --data d --model m.lead")).unwrap();
        assert_eq!(a.subcommand(), "train");
        assert_eq!(a.required("data").unwrap(), "d");
        assert_eq!(a.optional("model"), Some("m.lead"));
        assert_eq!(a.optional("nope"), None);
    }

    #[test]
    fn parsed_or_defaults_and_parses() {
        let a = Args::parse(argv("synth --trucks 99")).unwrap();
        assert_eq!(a.parsed_or("trucks", 10usize).unwrap(), 99);
        assert_eq!(a.parsed_or("days", 2usize).unwrap(), 2);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(Args::parse(argv("")).is_err());
        assert!(Args::parse(argv("x stray")).is_err());
        assert!(Args::parse(argv("x --a")).is_err());
        assert!(Args::parse(argv("x --a 1 --a 2")).is_err());
    }
}
