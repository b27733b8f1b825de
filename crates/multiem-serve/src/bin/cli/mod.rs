//! The command line of the crate's binaries. Each binary states its flags
//! once, as the rows of a [`Flag`] table, and [`apply`] reads those rows
//! both to parse the arguments and to print `--help`.

/// One flag: its name, the placeholder of its value (`""` for a switch,
/// which takes none), its `--help` text (each `\n` starts a line indented
/// under the first) and how its value is set on the options `T`.
pub(crate) struct Flag<T> {
    pub(crate) name: &'static str,
    pub(crate) value: &'static str,
    pub(crate) help: &'static str,
    pub(crate) set: fn(&mut T, &str) -> Result<(), String>,
}

/// Set the process's arguments on `options` through `flags`. `--help` (or
/// `-h`) prints `about` and one entry a row, then exits 0; an unknown flag,
/// a missing value or a value its row refuses exits 2 through [`fail`].
pub(crate) fn apply<T>(about: &str, flags: &[Flag<T>], options: &mut T) {
    let head = |flag: &Flag<T>| format!("{} {}", flag.name, flag.value);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            let width = flags.iter().map(|f| head(f).len()).max().unwrap_or(0);
            let indent = format!("\n{:1$}", "", width + 4);
            println!("{about}\n\noptions:");
            for flag in flags {
                let help = flag.help.replace('\n', &indent);
                println!("  {:width$}  {help}", head(flag));
            }
            std::process::exit(0);
        }
        let Some(flag) = flags.iter().find(|f| f.name == arg) else {
            fail(&format!("unknown flag `{arg}` (try --help)"));
        };
        let value = match flag.value {
            "" => String::new(),
            _ => args
                .next()
                .unwrap_or_else(|| fail(&format!("{arg} needs a value"))),
        };
        (flag.set)(options, &value).unwrap_or_else(|e| fail(&e));
    }
}

/// `text` as the value of `flag`, or the error every unparsable value gets.
pub(crate) fn parse<V: std::str::FromStr>(text: &str, flag: &str) -> Result<V, String> {
    text.parse()
        .map_err(|_| format!("invalid value `{text}` for {flag}"))
}

/// Report `msg` on stderr and exit 2.
pub(crate) fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
