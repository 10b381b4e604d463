//! Fuzzing the argument parser: arbitrary token streams must never panic,
//! and every accepted invocation must round-trip its values.

use proptest::prelude::*;

use regcluster_cli::{parse_args, Command};

fn token() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("mine".to_string()),
        Just("generate".to_string()),
        Just("eval".to_string()),
        Just("info".to_string()),
        Just("rwave".to_string()),
        Just("--engine".to_string()),
        Just("enrich".to_string()),
        Just("generate-yeast".to_string()),
        Just("help".to_string()),
        Just("--input".to_string()),
        Just("--output".to_string()),
        Just("--min-genes".to_string()),
        Just("--gamma".to_string()),
        Just("--epsilon".to_string()),
        Just("--maximal-only".to_string()),
        Just("--stats".to_string()),
        Just("--seed".to_string()),
        Just("--algorithm".to_string()),
        Just("--pattern".to_string()),
        "[a-zA-Z0-9./=-]{0,12}",
        "-?[0-9]{1,6}(\\.[0-9]{1,4})?",
    ]
}

proptest! {
    /// No token soup makes the parser panic; it either parses or errors.
    #[test]
    fn parser_never_panics(args in prop::collection::vec(token(), 0..10)) {
        let _ = parse_args(&args);
    }

    /// Structurally valid `mine` invocations parse and keep their values.
    #[test]
    fn valid_mine_roundtrips(
        min_genes in 1usize..1000,
        min_conds in 2usize..50,
        gamma in 0.0f64..1.0,
        epsilon in 0.0f64..10.0,
        threads in 1usize..64,
    ) {
        let args: Vec<String> = vec![
            "mine".into(),
            "--input".into(),
            "m.tsv".into(),
            format!("--min-genes={min_genes}"),
            format!("--min-conds={min_conds}"),
            format!("--gamma={gamma}"),
            format!("--epsilon={epsilon}"),
            format!("--threads={threads}"),
        ];
        match parse_args(&args) {
            Ok(Command::Mine { input, params, threads: t, .. }) => {
                prop_assert_eq!(input, "m.tsv");
                prop_assert_eq!(params.min_genes, min_genes);
                prop_assert_eq!(params.min_conds, min_conds);
                prop_assert_eq!(params.epsilon, epsilon);
                prop_assert_eq!(t, threads);
            }
            other => prop_assert!(false, "expected Mine, got {:?}", other),
        }
    }

    /// Unknown option names are always rejected, never silently accepted.
    #[test]
    fn unknown_options_are_rejected(name in "[a-z]{3,10}") {
        prop_assume!(![
            "input", "output", "gamma", "epsilon", "threads", "impute", "stats",
            "genes", "conds", "clusters", "pattern", "seed", "go", "modules",
            "top", "gene", "algorithm", "delta", "help", "progress",
        ]
        .contains(&name.as_str()));
        let args: Vec<String> =
            vec!["mine".into(), "--input".into(), "x".into(), format!("--{name}"), "1".into()];
        prop_assert!(parse_args(&args).is_err());
    }
}
