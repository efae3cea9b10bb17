//! The one argument parser behind `vns-bench`, `vns-verify` and
//! `vns-explain`: a flag cursor with typed errors, and the range checks
//! the three binaries share, stated once. A binary claims each flag it
//! knows, then its positionals, then calls [`Args::finish`], which rejects
//! whatever is left — all before it builds anything, so a bad line costs a
//! usage message and exit code 2 ([`CliError::exit`]), never a world.

use std::fmt;
use std::process::ExitCode;
use std::str::FromStr;

/// Why a command line was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `flag` was the last argument; its value is missing.
    MissingValue(&'static str),
    /// `value` does not parse as what `flag` takes.
    BadValue {
        /// The offending flag.
        flag: &'static str,
        /// What followed it.
        value: String,
        /// The parser's complaint.
        reason: String,
    },
    /// `value` parses but lies outside what `flag` accepts.
    OutOfRange {
        /// The offending flag.
        flag: &'static str,
        /// What followed it.
        value: String,
        /// The accepted range, in words.
        expected: &'static str,
    },
    /// An argument no flag or positional claimed (or a repeated flag).
    Unknown(String),
    /// `--help` / `-h`, or a required positional is missing.
    Help,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingValue(flag) => write!(f, "missing value after {flag}"),
            CliError::BadValue {
                flag,
                value,
                reason,
            } => write!(f, "{flag} {value}: {reason}"),
            CliError::OutOfRange {
                flag,
                value,
                expected,
            } => write!(f, "{flag} {value}: expected {expected}"),
            CliError::Unknown(arg) => write!(f, "unknown or repeated argument {arg}"),
            CliError::Help => Ok(()),
        }
    }
}

impl std::error::Error for CliError {}

impl CliError {
    /// Reports the error and `usage` on stderr; the exit code is 2.
    pub fn exit(&self, usage: &str) -> ExitCode {
        match self {
            CliError::Help => eprintln!("{usage}"),
            err => eprintln!("{err}\n{usage}"),
        }
        ExitCode::from(2)
    }
}

/// A cursor over the arguments not yet claimed.
#[derive(Debug, Clone)]
pub struct Args(Vec<String>);

impl Args {
    /// The process arguments, program name dropped.
    pub fn from_env() -> Self {
        Self::new(std::env::args().skip(1))
    }

    /// A cursor over `args`.
    pub fn new(args: impl IntoIterator<Item = impl Into<String>>) -> Self {
        Self(args.into_iter().map(Into::into).collect())
    }

    /// Claims every occurrence of any of `names`; true when one was there.
    pub fn switch(&mut self, names: &[&str]) -> bool {
        let before = self.0.len();
        self.0.retain(|a| !names.contains(&a.as_str()));
        self.0.len() < before
    }

    /// Claims `flag VALUE` and parses the value; `None` when absent.
    pub fn value<T: FromStr>(&mut self, flag: &'static str) -> Result<Option<T>, CliError>
    where
        T::Err: fmt::Display,
    {
        let Some(at) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if at + 1 == self.0.len() {
            return Err(CliError::MissingValue(flag));
        }
        let value = self.0.remove(at + 1);
        self.0.remove(at);
        match value.parse() {
            Ok(v) => Ok(Some(v)),
            Err(e) => Err(CliError::BadValue {
                flag,
                value,
                reason: format!("{e}"),
            }),
        }
    }

    /// [`Args::value`], refused unless `accept`ed.
    fn ranged<T: FromStr + fmt::Display>(
        &mut self,
        flag: &'static str,
        expected: &'static str,
        accept: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, CliError>
    where
        T::Err: fmt::Display,
    {
        match self.value::<T>(flag)? {
            Some(v) if !accept(&v) => Err(CliError::OutOfRange {
                flag,
                value: v.to_string(),
                expected,
            }),
            v => Ok(v),
        }
    }

    /// A finite real `> 0` (`--scale`, `--days`).
    pub fn positive(&mut self, flag: &'static str) -> Result<Option<f64>, CliError> {
        self.ranged(flag, "a finite number > 0", |v: &f64| {
            v.is_finite() && *v > 0.0
        })
    }

    /// A whole number `>= 1` (`--sessions`, `--hosts`, `--count`).
    pub fn count(&mut self, flag: &'static str) -> Result<Option<usize>, CliError> {
        self.ranged(flag, "a whole number >= 1", |v: &usize| *v >= 1)
    }

    /// Claims the first remaining argument that is not a flag. Call after
    /// every valued flag has been claimed.
    pub fn positional(&mut self) -> Option<String> {
        let at = self.0.iter().position(|a| !a.starts_with('-'))?;
        Some(self.0.remove(at))
    }

    /// Rejects `--help` / `-h` with [`CliError::Help`] and anything still
    /// unclaimed with [`CliError::Unknown`].
    pub fn finish(mut self) -> Result<(), CliError> {
        if self.switch(&["--help", "-h"]) {
            return Err(CliError::Help);
        }
        match self.0.into_iter().next() {
            Some(arg) => Err(CliError::Unknown(arg)),
            None => Ok(()),
        }
    }
}
