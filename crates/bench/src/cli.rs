//! Argument helpers shared by the bench binaries.

/// The path given to flag `name` in `args`, or `None` if the flag is
/// absent. Exits with status 2 if the flag has no value: it is the last
/// argument, or another flag (`--...`) follows it.
pub fn path_flag(args: &[String], name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    match args.get(i + 1) {
        Some(path) if !path.starts_with("--") => Some(path.clone()),
        _ => {
            eprintln!("{name} requires a path");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn path_flag_reads_the_next_argument() {
        let a = args(&["--quick", "--out", "x.json"]);
        assert_eq!(path_flag(&a, "--out"), Some("x.json".to_string()));
        assert_eq!(path_flag(&a, "--trace-out"), None);
    }
}
