#![warn(missing_docs)]

//! Implementation of the `regcluster` command-line tool.
//!
//! [`args::USAGE`] lists every subcommand and option; it is both the text
//! `regcluster help` prints and the table the parser reads option names,
//! value-taking and defaults from.
//!
//! The argument parser is hand-rolled (the workspace's dependency policy
//! favours a small, auditable surface over pulling in a CLI framework); it
//! supports `--option value` and `--option=value` forms and produces
//! precise error messages. All logic lives in this library so it is
//! unit-testable; the binary is a thin wrapper.

pub mod args;
pub mod commands;
pub mod serve;

pub use args::{parse_args, Command, ParseError};
pub use commands::{run, CliError};
