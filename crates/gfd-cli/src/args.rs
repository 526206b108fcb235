//! A small, dependency-free argument parser.
//!
//! Grammar: positional arguments and `--flag [value]` options. A flag
//! without a following value (next token starts with `--`, or end of
//! input) is boolean. Only the option names each command queries are
//! accepted — unknown options are reported, not ignored.

use std::collections::BTreeMap;
use std::fmt;

/// A usage or input error; rendered to the user verbatim.
#[derive(Debug)]
pub struct ArgError(String);

impl ArgError {
    /// Build an error from any message.
    pub fn new(msg: impl Into<String>) -> Self {
        ArgError(msg.into())
    }
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl From<std::io::Error> for ArgError {
    fn from(e: std::io::Error) -> Self {
        ArgError(e.to_string())
    }
}

/// Parsed command-line arguments.
#[derive(Clone, Debug, Default)]
pub struct Parsed {
    positional: Vec<String>,
    options: BTreeMap<String, Option<String>>,
    /// Option names a command has queried (for unknown-option detection).
    queried: std::cell::RefCell<Vec<String>>,
}

impl Parsed {
    /// Parse raw arguments.
    pub fn parse(args: &[String]) -> Result<Self, ArgError> {
        let mut parsed = Parsed::default();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(name) = a.strip_prefix("--") {
                if name.is_empty() {
                    return Err(ArgError::new("unexpected `--`"));
                }
                let value = match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        i += 1;
                        Some(v.clone())
                    }
                    _ => None,
                };
                if parsed.options.insert(name.to_string(), value).is_some() {
                    return Err(ArgError::new(format!("duplicate option --{name}")));
                }
            } else {
                parsed.positional.push(a.clone());
            }
            i += 1;
        }
        Ok(parsed)
    }

    /// The `n`-th positional argument, or an error naming it.
    pub fn positional(&self, n: usize, name: &str) -> Result<&str, ArgError> {
        self.positional
            .get(n)
            .map(String::as_str)
            .ok_or_else(|| ArgError::new(format!("missing required argument <{name}>")))
    }

    fn note(&self, name: &str) {
        self.queried.borrow_mut().push(name.to_string());
    }

    /// A boolean flag (present without value).
    pub fn flag(&self, name: &str) -> bool {
        self.note(name);
        self.options.contains_key(name)
    }

    /// A string option.
    pub fn opt_str(&self, name: &str) -> Result<Option<&str>, ArgError> {
        self.note(name);
        match self.options.get(name) {
            None => Ok(None),
            Some(Some(v)) => Ok(Some(v)),
            Some(None) => Err(ArgError::new(format!("option --{name} needs a value"))),
        }
    }

    /// An integer option with a default.
    pub fn opt_usize(&self, name: &str, default: usize) -> Result<usize, ArgError> {
        match self.opt_str(name)? {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError::new(format!("--{name} expects an integer, got `{v}`"))),
        }
    }

    /// A `u64` option with a default.
    pub fn opt_u64(&self, name: &str, default: u64) -> Result<u64, ArgError> {
        match self.opt_str(name)? {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError::new(format!("--{name} expects an integer, got `{v}`"))),
        }
    }

    /// Reject any option the command never queried. Call after all reads.
    pub fn finish(&self) -> Result<(), ArgError> {
        let queried = self.queried.borrow();
        for name in self.options.keys() {
            if !queried.iter().any(|q| q == name) {
                return Err(ArgError::new(format!("unknown option --{name}")));
            }
        }
        Ok(())
    }
}

/// Parse the uniform resource-budget flags every reasoning command
/// accepts: `--deadline-ms T` (wall-clock) and `--max-units N`
/// (scheduler work units). Exhausting either limit is reported as a
/// clean exit-2 diagnostic — never a wrong definite verdict.
pub fn parse_budget(args: &Parsed) -> Result<gfd_core::Budget, ArgError> {
    let mut budget = gfd_core::Budget::unlimited();
    if let Some(v) = args.opt_str("deadline-ms")? {
        let ms: u64 = v
            .parse()
            .map_err(|_| ArgError::new(format!("--deadline-ms expects an integer, got `{v}`")))?;
        budget = budget.with_deadline_ms(ms);
    }
    if let Some(v) = args.opt_str("max-units")? {
        let n: u64 = v
            .parse()
            .map_err(|_| ArgError::new(format!("--max-units expects an integer, got `{v}`")))?;
        if n == 0 {
            return Err(ArgError::new("--max-units must be positive"));
        }
        budget = budget.with_max_units(n);
    }
    Ok(budget)
}

/// Read a rule file and parse it as a DSL document.
pub fn load_document(
    path: &str,
    vocab: &mut gfd_graph::Vocab,
) -> Result<gfd_dsl::Document, ArgError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| ArgError::new(format!("cannot read {path}: {e}")))?;
    gfd_dsl::parse_document(&src, vocab)
        .map_err(|e| ArgError::new(format!("parse error in {path}: {e}")))
}

/// The rule blocks a command does not read.
#[derive(Clone, Copy)]
pub enum Unread {
    /// `ged` blocks: `sat`, `imp`, `minimize` and `detect` read `gfd` and
    /// `ggd` blocks only.
    Ged,
    /// `ggd` blocks: `ged-sat`, `ged-imp` and `resolve` read `gfd` and
    /// `ged` blocks only (a GED cannot create nodes).
    Ggd,
}

/// Refuse a document holding rule blocks `command` does not read, naming
/// the first one — dropping it silently would answer about a different Σ.
pub fn refuse_unread(
    doc: &gfd_dsl::Document,
    path: &str,
    command: &str,
    unread: Unread,
) -> Result<(), ArgError> {
    let generating = || doc.deps.as_slice().iter().find(|d| d.is_generating());
    let (kind, first, readers) = match unread {
        Unread::Ged => (
            "ged",
            doc.geds.iter().next().map(|(_, g)| &g.name),
            "`gfd ged-sat` / `gfd ged-imp` do",
        ),
        Unread::Ggd => (
            "ggd",
            generating().map(|d| &d.name),
            "`gfd sat` / `gfd imp` / `gfd detect` do",
        ),
    };
    let Some(name) = first else { return Ok(()) };
    Err(ArgError::new(format!(
        "{path}: `gfd {command}` does not read `{kind}` blocks (first: `{name}`); {readers}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Parsed {
        Parsed::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn positional_and_options_mix() {
        let p = parse(&["file.gfd", "--workers", "8", "--seq"]);
        assert_eq!(p.positional(0, "file").unwrap(), "file.gfd");
        assert_eq!(p.opt_usize("workers", 4).unwrap(), 8);
        assert!(p.flag("seq"));
        assert!(!p.flag("verbose"));
        assert!(p.finish().is_ok());
    }

    #[test]
    fn missing_positional_is_named() {
        let p = parse(&["--workers", "8"]);
        let err = p.positional(0, "file").unwrap_err();
        assert!(err.to_string().contains("<file>"));
    }

    #[test]
    fn flag_followed_by_flag_is_boolean() {
        let p = parse(&["--seq", "--workers", "2"]);
        assert!(p.flag("seq"));
        assert_eq!(p.opt_usize("workers", 0).unwrap(), 2);
    }

    #[test]
    fn bad_integer_is_an_error() {
        let p = parse(&["--workers", "lots"]);
        assert!(p.opt_usize("workers", 4).is_err());
    }

    #[test]
    fn duplicate_option_rejected() {
        let args: Vec<String> = ["--a", "1", "--a", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(Parsed::parse(&args).is_err());
    }

    #[test]
    fn unknown_option_detected_by_finish() {
        let p = parse(&["--mystery", "4"]);
        let _ = p.flag("known");
        let err = p.finish().unwrap_err();
        assert!(err.to_string().contains("--mystery"));
    }

    #[test]
    fn value_needed_error() {
        let p = parse(&["--phi"]);
        assert!(p.opt_str("phi").is_err());
    }
}
