//! The README quotes two headline ratios from the committed bench
//! snapshots.  This pins each quote to its snapshot, so a regenerated
//! snapshot cannot leave a stale number in the README (or the reverse).

fn read(file: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The number after the one occurrence of `"key": ` in `text`.
fn value_after(text: &str, key: &str) -> f64 {
    let parts: Vec<&str> = text.split(&format!("\"{key}\": ")).collect();
    assert_eq!(parts.len(), 2, "{key} must occur exactly once");
    let end = parts[1].find([',', '\n', '}']).unwrap_or(parts[1].len());
    parts[1][..end]
        .parse()
        .unwrap_or_else(|e| panic!("{key}: {e}"))
}

#[test]
fn readme_quotes_the_snapshot_headline_ratios() {
    let readme = read("README.md");
    for (file, key) in [
        ("BENCH_landmark.json", "dense_over_sparse_speedup_4096"),
        ("BENCH_churn.json", "repair_speedup_131072"),
    ] {
        let quote = format!("{:.2}×", value_after(&read(file), key));
        assert!(
            readme.contains(&quote),
            "README.md must quote {key} from {file} as {quote}"
        );
    }
}
