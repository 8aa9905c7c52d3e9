//! The command-line plumbing of the three binaries: one error type whose
//! variant is the exit status, one [`main`] that prints it, and one reader
//! over the arguments no command has taken yet.
//!
//! A command is a `fn(Args) -> CliResult`: it takes its positional
//! arguments and flags through the [`Args`] readers, calls
//! [`Args::finish`] to refuse whatever is left over, and fails with `?`.

use std::str::FromStr;

/// Why a command failed; the variant picks the exit status.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// The command line is wrong: exit 2, with the usage text after the
    /// message.
    Usage(String),
    /// The command ran and failed: exit 1.
    Failed(String),
}

/// A command's failures from the layers below are plain messages.
impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Failed(message)
    }
}

/// What a command returns.
pub type CliResult = Result<(), CliError>;

/// Runs `command` over the process arguments and exits: 0 on success, and
/// on an error its status after printing `error: …` to stderr. `--help` or
/// `-h` anywhere prints `usage` to stdout and exits 0 instead.
pub fn main(usage: &str, command: impl FnOnce(Args) -> CliResult) -> ! {
    let args = Args(std::env::args().skip(1).collect());
    let code = if args.0.iter().any(|a| a == "--help" || a == "-h") {
        println!("{usage}");
        0
    } else {
        match command(args) {
            Ok(()) => 0,
            Err(CliError::Usage(message)) => {
                eprintln!("error: {message}\n\n{usage}");
                2
            }
            Err(CliError::Failed(message)) => {
                eprintln!("error: {message}");
                1
            }
        }
    };
    std::process::exit(code)
}

/// The arguments no reader has taken yet, in command-line order.
#[derive(Debug)]
pub struct Args(Vec<String>);

impl Args {
    /// Takes the leading argument if it is not a flag; `what` names it in
    /// the error.
    pub fn positional(&mut self, what: &str) -> Result<String, CliError> {
        match self.0.first() {
            Some(arg) if !arg.starts_with('-') => Ok(self.0.remove(0)),
            _ => Err(CliError::Usage(format!("missing <{what}> argument"))),
        }
    }

    /// Takes every `flag VALUE` pair and returns the last value.
    pub fn value(&mut self, flag: &str) -> Result<Option<String>, CliError> {
        let mut last = None;
        while let Some(i) = self.0.iter().position(|a| a == flag) {
            if i + 1 == self.0.len() {
                return Err(CliError::Usage(format!("{flag} needs a value")));
            }
            last = Some(self.0.remove(i + 1));
            self.0.remove(i);
        }
        Ok(last)
    }

    /// [`Args::value`], parsed; `what` names the expected kind of value.
    pub fn parsed<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<Option<T>, CliError> {
        let Some(value) = self.value(flag)? else { return Ok(None) };
        let wrong = |_| CliError::Usage(format!("{flag} wants {what}, got `{value}`"));
        value.parse().map(Some).map_err(wrong)
    }

    /// Takes every occurrence of the value-less `flag`; true if there was
    /// one.
    pub fn switch(&mut self, flag: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != flag);
        self.0.len() < before
    }

    /// Refuses any argument no reader took.
    pub fn finish(self) -> CliResult {
        match self.0.first() {
            None => Ok(()),
            Some(arg) if arg.starts_with('-') => {
                Err(CliError::Usage(format!("unknown flag `{arg}`")))
            }
            Some(arg) => Err(CliError::Usage(format!("unexpected argument `{arg}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Args {
        Args(words.iter().map(|w| w.to_string()).collect())
    }

    #[test]
    fn readers_take_what_they_name_and_finish_refuses_the_rest() {
        let mut a = args(&["grid", "--out", "a", "--resume", "--out", "b", "--threads", "4"]);
        assert_eq!(a.positional("scenario"), Ok("grid".to_owned()));
        assert_eq!(a.value("--out"), Ok(Some("b".to_owned())), "the last value wins");
        assert_eq!(a.parsed::<usize>("--threads", "a count"), Ok(Some(4)));
        assert!(a.switch("--resume"));
        assert!(!a.switch("--quiet"));
        assert_eq!(a.value("--metrics-dir"), Ok(None));
        assert_eq!(a.finish(), Ok(()));

        let mut stray = args(&["x", "--bogus", "1"]);
        stray.positional("scenario").expect("leading word");
        assert_eq!(stray.finish(), Err(CliError::Usage("unknown flag `--bogus`".to_owned())));
    }
}
