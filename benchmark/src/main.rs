//! See the library crate's documentation for the commands.

fn main() -> std::process::ExitCode {
    dauctioneer_benchmark::cli::main()
}
