//! DESIGN.md §3 inventories each crate's modules: every backticked
//! module a bullet names under a `### metal-*` heading (before the
//! bullet's ` — `) must exist as `crates/<crate>/src/<path>.rs` or as a
//! directory there, with `a::b` read as `a/b`.

use std::path::Path;

#[test]
fn design_inventory_names_only_modules_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md reads");
    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("3. "))
        .expect("DESIGN.md has a §3");

    let mut krate = None;
    let mut checked = 0;
    let mut missing = Vec::new();
    for line in section.lines() {
        if let Some(heading) = line.strip_prefix("### metal-") {
            krate = heading.split_whitespace().next();
            continue;
        }
        let (Some(krate), Some(bullet)) = (krate, line.strip_prefix("- ")) else {
            continue;
        };
        let names = bullet.split(" — ").next().unwrap_or_default();
        for module in names.split('`').skip(1).step_by(2) {
            let path = root
                .join("crates")
                .join(krate)
                .join("src")
                .join(module.replace("::", "/"));
            if !path.with_extension("rs").is_file() && !path.is_dir() {
                missing.push(format!("metal-{krate}: `{module}`"));
            }
            checked += 1;
        }
    }
    assert!(checked > 50, "§3 named only {checked} modules");
    assert!(
        missing.is_empty(),
        "DESIGN.md §3 names missing modules: {missing:?}"
    );
}
