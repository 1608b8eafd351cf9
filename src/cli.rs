//! One declarative flag table for every command-line entry point: the
//! `dauction` subcommands and the `dauctioneer-bench` binaries.
//!
//! A binary lists its flags in a [`Flags`] table, each entry naming the
//! flag and its value (`"--rounds N"`), a help line and the variable it
//! sets, then parses its argv with it. The table is the whole contract:
//!
//! * `--help` or `-h` prints the usage followed by every flag, its value
//!   and its default, generated from the table, and exits 0;
//! * an argument outside the table exits 2 naming it;
//! * a valued flag with nothing after it exits 2 naming the flag;
//! * a value the flag cannot parse exits 2 naming the flag and the value.
//!
//! A typo never silently becomes the default. A valued flag always takes
//! the next argument as its value, even one that starts with `--`.

use std::fmt;
use std::num::ParseIntError;
use std::str::FromStr;
use std::time::Duration;

/// Applies one value to a flag's target, or says why it cannot.
type Setter<'a> = Box<dyn FnMut(&str) -> Result<(), String> + 'a>;

/// One entry of the table.
struct Flag<'a> {
    /// `--name` for a switch, `--name VALUE` for a flag that takes a value.
    spec: String,
    help: String,
    set: Setter<'a>,
}

/// A usage line and the flags that follow it, each setting a variable
/// borrowed for the table's lifetime.
pub struct Flags<'a> {
    usage: String,
    flags: Vec<Flag<'a>>,
}

impl<'a> Flags<'a> {
    /// An empty table under `usage`, the first line(s) of `--help`.
    pub fn new(usage: &str) -> Flags<'a> {
        Flags { usage: usage.to_string(), flags: Vec::new() }
    }

    /// A switch: its presence sets `target` to `true`.
    pub fn switch(mut self, name: &str, help: &str, target: &'a mut bool) -> Flags<'a> {
        let set = Box::new(move |_: &str| {
            *target = true;
            Ok(())
        });
        self.flags.push(Flag { spec: name.to_string(), help: help.to_string(), set });
        self
    }

    /// `spec` is `"--name VALUE"`; the value parses through `FromStr` into
    /// `target`, and `--help` shows `target`'s current value as the default.
    pub fn value<T>(self, spec: &str, help: &str, target: &'a mut T) -> Flags<'a>
    where
        T: FromStr + fmt::Display,
        T::Err: fmt::Display,
    {
        let help = format!("{help} (default {target})");
        self.valued(spec, help, move |v| {
            *target = v.parse().map_err(|e: T::Err| e.to_string())?;
            Ok(())
        })
    }

    /// Like [`Flags::value`] for a whole number of milliseconds that sets
    /// the `target` duration.
    pub fn millis(self, spec: &str, help: &str, target: &'a mut Duration) -> Flags<'a> {
        let help = format!("{help} (default {})", target.as_millis());
        self.valued(spec, help, move |v| {
            *target = Duration::from_millis(v.parse().map_err(|e: ParseIntError| e.to_string())?);
            Ok(())
        })
    }

    /// Like [`Flags::value`] with no default: `target` stays `None` unless
    /// the flag is given.
    pub fn optional<T>(self, spec: &str, help: &str, target: &'a mut Option<T>) -> Flags<'a>
    where
        T: FromStr,
        T::Err: fmt::Display,
    {
        self.valued(spec, help.to_string(), move |v| {
            *target = Some(v.parse().map_err(|e: T::Err| e.to_string())?);
            Ok(())
        })
    }

    /// A flag whose value is one word of `choices`, setting `target` to the
    /// paired value. The value name is the words joined by `|`; `--help`
    /// shows the word paired with `target`'s current value as the default.
    pub fn choice<T: Clone + PartialEq>(
        self,
        name: &str,
        help: &str,
        target: &'a mut T,
        choices: &'a [(&'static str, T)],
    ) -> Flags<'a> {
        let words = choices.iter().map(|(word, _)| *word).collect::<Vec<_>>().join("|");
        let help = match choices.iter().find(|(_, v)| v == target) {
            Some((word, _)) => format!("{help} (default {word})"),
            None => help.to_string(),
        };
        let expected = format!("expected {words}");
        self.valued(&format!("{name} {words}"), help, move |v| {
            let (_, chosen) = choices.iter().find(|(word, _)| *word == v).ok_or(&expected)?;
            *target = chosen.clone();
            Ok(())
        })
    }

    fn valued(
        mut self,
        spec: &str,
        help: String,
        set: impl FnMut(&str) -> Result<(), String> + 'a,
    ) -> Flags<'a> {
        assert!(spec.contains(' '), "a valued flag's spec is \"--name VALUE\", got {spec:?}");
        self.flags.push(Flag { spec: spec.to_string(), help, set: Box::new(set) });
        self
    }

    /// Apply `args` (without the program name), stopping with an [`Error`]
    /// at the first `--help`/`-h` or the first refused argument.
    fn try_parse<S: AsRef<str>>(&mut self, args: impl IntoIterator<Item = S>) -> Result<(), Error> {
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let arg = arg.as_ref();
            if arg == "--help" || arg == "-h" {
                return Err(Error::Help);
            }
            let flag = self
                .flags
                .iter_mut()
                .find(|flag| flag.spec.split(' ').next() == Some(arg))
                .ok_or_else(|| Error::Unknown(arg.to_string()))?;
            let value = if flag.spec.contains(' ') {
                args.next().ok_or(Error::MissingValue(arg.to_string()))?.as_ref().to_string()
            } else {
                String::new()
            };
            if let Err(why) = (flag.set)(&value) {
                return Err(Error::BadValue { flag: arg.to_string(), value, why });
            }
        }
        Ok(())
    }

    /// The usage followed by one aligned line per flag.
    fn help(&self) -> String {
        const HELP: &str = "-h, --help";
        let width = self.flags.iter().fold(HELP.len(), |width, flag| width.max(flag.spec.len()));
        let mut out = format!("{}\n", self.usage);
        for flag in &self.flags {
            out.push_str(&format!("  {:<width$}  {}\n", flag.spec, flag.help));
        }
        out.push_str(&format!("  {HELP:<width$}  print this help and exit\n"));
        out
    }

    /// Apply `args` (without the program name). On `--help`/`-h`, print
    /// the usage and every flag to stdout and exit 0; on a refused
    /// argument, print what was refused to stderr and exit 2.
    pub fn parse<S: AsRef<str>>(mut self, args: impl IntoIterator<Item = S>) {
        match self.try_parse(args) {
            Ok(()) => {}
            Err(Error::Help) => {
                print!("{}", self.help());
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("error: {e}; --help lists the accepted flags");
                std::process::exit(2);
            }
        }
    }
}

/// Why a command line does not run: help was asked for, or an argument
/// was refused (each such case names the offending flag).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Error {
    /// `--help` or `-h`: print the usage instead of running.
    Help,
    /// An argument the table does not declare.
    Unknown(String),
    /// A valued flag with nothing after it.
    MissingValue(String),
    /// A value its flag cannot parse: the flag, the value, and why.
    BadValue {
        /// The flag.
        flag: String,
        /// The value as given.
        value: String,
        /// The parser's reason.
        why: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Help => write!(f, "help requested"),
            Error::Unknown(arg) => write!(f, "unknown flag {arg:?}"),
            Error::MissingValue(flag) => write!(f, "{flag} needs a value"),
            Error::BadValue { flag, value, why } => {
                write!(f, "{flag}: bad value {value:?} ({why})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUNTIMES: &[(&str, bool)] = &[("threads", false), ("des", true)];

    #[test]
    fn flags_set_their_targets_and_help_stops_parsing() {
        let (mut rounds, mut quick, mut k, mut des) = (3usize, false, None::<usize>, false);
        let mut pause = Duration::from_millis(150);
        let mut run = |args: &[&str]| {
            Flags::new("usage: demo")
                .value("--rounds N", "rounds", &mut rounds)
                .switch("--quick", "quick", &mut quick)
                .optional("--k K", "coalition", &mut k)
                .choice("--runtime", "runtime", &mut des, RUNTIMES)
                .millis("--pause-ms D", "pause", &mut pause)
                .try_parse(args)
        };
        let args = ["--quick", "--rounds", "7", "--k", "2", "--runtime", "des", "--pause-ms", "9"];
        assert_eq!(run(&args), Ok(()));
        assert_eq!(run(&["--bogus", "-h"]), Err(Error::Unknown("--bogus".into())));
        assert_eq!(run(&["-h", "--bogus"]), Err(Error::Help));
        assert_eq!((rounds, quick, k, des), (7, true, Some(2), true));
        assert_eq!(pause, Duration::from_millis(9));
    }

    #[test]
    fn unknown_flags_are_errors_naming_the_flag() {
        let (mut csv, mut rounds) = (false, 3usize);
        for bad in ["--quik", "--json", "-q", "quick", "--rounds=3"] {
            let why = Flags::new("usage: demo")
                .switch("--csv", "csv", &mut csv)
                .value("--rounds N", "rounds", &mut rounds)
                .try_parse(["--csv", bad])
                .unwrap_err();
            assert_eq!(why, Error::Unknown(bad.into()));
            assert!(why.to_string().contains(&format!("{bad:?}")), "{why}");
        }
    }

    #[test]
    fn a_missing_trailing_value_names_the_flag() {
        let mut rounds = 3usize;
        let why = Flags::new("").value("--rounds N", "", &mut rounds).try_parse(["--rounds"]);
        assert_eq!(why, Err(Error::MissingValue("--rounds".into())));
        assert_eq!(why.unwrap_err().to_string(), "--rounds needs a value");
    }

    #[test]
    fn unusable_values_are_errors_naming_flag_and_value() {
        let (mut rounds, mut des) = (3usize, false);
        for bad in ["abc", "-3", "1.5", ""] {
            let why = Flags::new("")
                .value("--rounds N", "", &mut rounds)
                .try_parse(["--rounds", bad])
                .unwrap_err();
            assert!(matches!(&why, Error::BadValue { flag, value, .. }
                if flag == "--rounds" && value == bad));
            let text = why.to_string();
            assert!(text.contains("--rounds") && text.contains(&format!("{bad:?}")), "{text}");
        }
        let why = Flags::new("")
            .choice("--runtime", "", &mut des, RUNTIMES)
            .try_parse(["--runtime", "bogus"])
            .unwrap_err();
        assert_eq!(why.to_string(), "--runtime: bad value \"bogus\" (expected threads|des)");
        assert_eq!(rounds, 3, "a refused value leaves the default");
    }

    #[test]
    fn a_valued_flags_value_is_never_taken_for_a_flag() {
        let (mut rounds, mut journal) = (3usize, None::<String>);
        let mut run = |args: &[&str]| {
            Flags::new("")
                .value("--rounds N", "", &mut rounds)
                .optional("--journal PATH", "", &mut journal)
                .try_parse(args)
        };
        // `--weird` is --rounds' (bad) value, not an unknown flag...
        assert!(matches!(run(&["--rounds", "--weird"]),
            Err(Error::BadValue { flag, value, .. }) if flag == "--rounds" && value == "--weird"));
        // ...and a value `--help` is a value, not a request for help.
        assert_eq!(run(&["--journal", "--help"]), Ok(()));
        assert_eq!(journal.as_deref(), Some("--help"));
    }

    #[test]
    fn help_lists_every_flag_with_its_value_and_default() {
        let (mut rounds, mut quick, mut k, mut des) = (3usize, false, None::<usize>, false);
        let mut pause = Duration::from_millis(150);
        let text = Flags::new("usage: demo [FLAG]...")
            .value("--rounds N", "measurement rounds", &mut rounds)
            .switch("--quick", "reduced sweep", &mut quick)
            .optional("--k K", "coalition bound", &mut k)
            .choice("--runtime", "runtime", &mut des, RUNTIMES)
            .millis("--pause-ms D", "pause", &mut pause)
            .help();
        assert!(text.starts_with("usage: demo [FLAG]...\n"), "{text}");
        for line in [
            "--rounds N             measurement rounds (default 3)",
            "--quick                reduced sweep",
            "--k K                  coalition bound",
            "--runtime threads|des  runtime (default threads)",
            "--pause-ms D           pause (default 150)",
            "-h, --help             print this help and exit",
        ] {
            assert!(text.contains(line), "{line:?} missing from\n{text}");
        }
    }
}
