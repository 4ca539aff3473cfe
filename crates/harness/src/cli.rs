//! The one command-line parser behind every `harness` subcommand.
//!
//! A subcommand declares a [`Command`]: a table with one [`Flag`] per
//! option (its spellings, whether it takes a value, the value hint printed
//! in "`<flag> needs a value (…)`", and a setter that validates the value
//! and stores it) plus a [`Positionals`] rule. [`Command::parse`] walks the
//! arguments once, in order, so the first offending argument is the one
//! reported; `--help`/`-h` yields [`Usage::Help`]. A value-taking flag with
//! a two-character spelling also takes its value attached (`-j4`).
//!
//! The validators below are shared by every table, so a flag defined once
//! and listed in several tables (`--scale`, `--jobs`, ...) is checked the
//! same way everywhere.

use std::str::FromStr;

/// Why parsing stopped: `--help` (usage, exit 0) or a usage error (usage
/// plus the message, exit 2).
#[derive(Debug, PartialEq, Eq)]
pub enum Usage {
    /// `--help` / `-h`.
    Help,
    /// The message printed before the usage text.
    Error(String),
}

impl From<String> for Usage {
    fn from(msg: String) -> Self {
        Usage::Error(msg)
    }
}

impl From<&str> for Usage {
    fn from(msg: &str) -> Self {
        Usage::Error(msg.to_string())
    }
}

/// One option of a subcommand: every spelling (e.g. `["--jobs", "-j"]`)
/// and how it stores what it was given.
#[derive(Debug)]
pub struct Flag<O>(pub Names, pub Set<O>);

/// A flag's spellings.
pub type Names = &'static [&'static str];

/// A validating setter: `(opts, flag as spelled, value)`.
pub type Parser<O> = fn(&mut O, &str, &str) -> Result<(), String>;

/// How a [`Flag`] stores what it was given. A value-taking flag carries
/// the hint printed in "`<flag> needs a value (hint)`".
#[derive(Debug)]
pub enum Set<O> {
    /// A switch: takes no value.
    Switch(fn(&mut O)),
    /// Takes any string value.
    Text(&'static str, fn(&mut O, String)),
    /// Takes a value and validates it.
    Parse(&'static str, Parser<O>),
}

impl<O> Flag<O> {
    /// A flag that takes no value.
    pub const fn switch(names: Names, set: fn(&mut O)) -> Self {
        Flag(names, Set::Switch(set))
    }

    /// A flag whose value is stored as given.
    pub const fn text(names: Names, hint: &'static str, set: fn(&mut O, String)) -> Self {
        Flag(names, Set::Text(hint, set))
    }

    /// A flag whose value `set` validates.
    pub const fn parse(names: Names, hint: &'static str, set: Parser<O>) -> Self {
        Flag(names, Set::Parse(hint, set))
    }

    /// The value hint; `None` for a switch.
    pub fn hint(&self) -> Option<&'static str> {
        match self.1 {
            Set::Switch(_) => None,
            Set::Text(hint, _) | Set::Parse(hint, _) => Some(hint),
        }
    }
}

/// How many positional (non-flag) arguments a subcommand takes.
#[derive(Debug)]
pub enum Positionals {
    /// None: every positional is an unexpected argument.
    None,
    /// Any number, in order.
    Any,
    /// Exactly `n`; the message is the error when fewer are given.
    Exactly(usize, &'static str),
}

/// A subcommand's flag table and positional rule.
#[derive(Debug)]
pub struct Command<O: 'static> {
    /// The subcommand, as named in "unknown `<name>` option"; empty for
    /// the default experiment run.
    pub name: &'static str,
    /// The positional rule.
    pub positionals: Positionals,
    /// Every accepted flag.
    pub flags: &'static [Flag<O>],
}

impl<O> Command<O> {
    /// Parses `args` onto `opts`, returning the options and the positional
    /// arguments in order.
    pub fn parse(&self, args: Vec<String>, mut opts: O) -> Result<(O, Vec<String>), Usage> {
        let mut positionals = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Err(Usage::Help);
            }
            if !arg.starts_with('-') {
                let room = match self.positionals {
                    Positionals::None => false,
                    Positionals::Any => true,
                    Positionals::Exactly(n, _) => positionals.len() < n,
                };
                if !room {
                    return Err(format!("unexpected argument: {arg}").into());
                }
                positionals.push(arg);
                continue;
            }
            let (flag, name, attached) = self.lookup(&arg).ok_or_else(|| match self.name {
                "" => format!("unknown option: {arg}"),
                sub => format!("unknown {sub} option: {arg}"),
            })?;
            let mut value = |hint| match attached {
                Some(v) => Ok(v.to_string()),
                None => args
                    .next()
                    .ok_or_else(|| format!("{name} needs a value ({hint})")),
            };
            match flag.1 {
                Set::Switch(set) => set(&mut opts),
                Set::Text(hint, set) => set(&mut opts, value(hint)?),
                Set::Parse(hint, set) => set(&mut opts, name, &value(hint)?)?,
            }
        }
        match self.positionals {
            Positionals::Exactly(n, missing) if positionals.len() < n => Err(missing.into()),
            _ => Ok((opts, positionals)),
        }
    }

    /// The flag `arg` names, the spelling it matched, and an attached
    /// value (`-j4`).
    fn lookup<'a>(&self, arg: &'a str) -> Option<(&Flag<O>, &'static str, Option<&'a str>)> {
        for flag in self.flags {
            for &name in flag.0 {
                if arg == name {
                    return Some((flag, name, None));
                }
                let short = name.len() == 2 && !arg.starts_with("--");
                if short && flag.hint().is_some() && arg.get(..2) == Some(name) {
                    return Some((flag, name, Some(&arg[2..])));
                }
            }
        }
        None
    }
}

/// `v` parsed as a `T`.
pub fn number<T: FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: invalid value '{v}'"))
}

/// `v` as an integer of at least 1; otherwise "`flag`: `complaint`".
pub fn at_least_1<T: FromStr + PartialOrd + From<u8>>(
    flag: &str,
    v: &str,
    complaint: &str,
) -> Result<T, String> {
    let n: T = number(flag, v)?;
    if n < T::from(1) {
        return Err(format!("{flag}: {complaint}"));
    }
    Ok(n)
}

/// `v` as a finite float that `ok` accepts; otherwise "`flag`: must be
/// `what`". `f64::from_str` takes "inf" and "NaN", so both are checked.
pub fn finite(flag: &str, v: &str, ok: fn(f64) -> bool, what: &str) -> Result<f64, String> {
    let x: f64 = number(flag, v)?;
    if !x.is_finite() || !ok(x) {
        return Err(format!("{flag}: must be {what}"));
    }
    Ok(x)
}

/// A `--scale` run-size multiplier: finite, above 0, and small enough that
/// the scaled run sizes fit a `u64` (a NaN or negative scale would silently
/// run the minimum sizes, a saturating one never ends).
pub fn scale(flag: &str, v: &str) -> Result<f64, String> {
    let x = finite(flag, v, |x| x > 0.0, "a finite number greater than 0")?;
    if !crate::RunParams::scale_fits(x) {
        return Err(format!(
            "{flag}: {v} is too large (the scaled run sizes overflow)"
        ));
    }
    Ok(x)
}

/// A journal level name (`debug`, `info`, `warn`, `error`).
pub fn level(flag: &str, v: &str) -> Result<obs::log::Level, String> {
    obs::log::Level::parse(v).ok_or_else(|| format!("{flag}: unknown level '{v}'"))
}

/// The hint of every `--scale` flag.
pub const SCALE_HINT: &str = "a number > 0";

/// The hint of every journal-level flag.
pub const LEVEL_HINT: &str = "debug|info|warn|error";

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct T {
        n: usize,
        on: bool,
        path: Option<String>,
    }

    const CMD: Command<T> = Command {
        name: "demo",
        positionals: Positionals::Exactly(1, "demo needs a file"),
        flags: &[
            Flag::parse(&["--num", "-n"], "a count", |o, f, v| {
                at_least_1(f, v, "must be at least 1").map(|n| o.n = n)
            }),
            Flag::switch(&["--on"], |o| o.on = true),
            Flag::text(&["--path"], "a path", |o, v| o.path = Some(v)),
        ],
    };

    fn parse(args: &[&str]) -> Result<(T, Vec<String>), Usage> {
        CMD.parse(args.iter().map(|s| s.to_string()).collect(), T::default())
    }

    fn err(args: &[&str]) -> String {
        match parse(args) {
            Err(Usage::Error(m)) => m,
            other => panic!("{args:?} must fail, got {other:?}"),
        }
    }

    #[test]
    fn flags_values_and_positionals_land() {
        let (o, pos) = parse(&["-n3", "f", "--on", "--path", "-"]).unwrap();
        assert_eq!((o.n, o.on, o.path.as_deref()), (3, true, Some("-")));
        assert_eq!(pos, ["f"]);
        assert_eq!(parse(&["-n", "4", "f"]).unwrap().0.n, 4);
    }

    #[test]
    fn the_first_offending_argument_wins() {
        assert_eq!(err(&["--bogus", "--help"]), "unknown demo option: --bogus");
        assert_eq!(parse(&["--help", "--bogus"]).unwrap_err(), Usage::Help);
        assert_eq!(err(&["f", "g", "--bogus"]), "unexpected argument: g");
        assert_eq!(err(&["-n0", "--bogus"]), "-n: must be at least 1");
        assert_eq!(err(&["-nx"]), "-n: invalid value 'x'");
        assert_eq!(err(&["--path"]), "--path needs a value (a path)");
        assert_eq!(err(&[]), "demo needs a file");
        // Switches and long spellings take no attached value.
        assert_eq!(err(&["--onx"]), "unknown demo option: --onx");
        assert_eq!(err(&["--num3"]), "unknown demo option: --num3");
    }

    #[test]
    fn validators_reject_what_they_promise() {
        assert!(scale("--scale", "0.5").is_ok());
        for bad in ["0", "-1", "nan", "inf", "-inf"] {
            assert!(scale("--scale", bad)
                .unwrap_err()
                .contains("greater than 0"));
        }
        assert!(scale("--scale", "1e12").is_ok());
        for huge in ["1e13", "1e300"] {
            assert!(scale("--scale", huge).unwrap_err().contains("too large"));
        }
        assert!(level("--level", "loud")
            .unwrap_err()
            .contains("unknown level 'loud'"));
        assert_eq!(level("--level", "warn"), Ok(obs::log::Level::Warn));
    }
}
