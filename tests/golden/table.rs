//! The committed digest table behind the golden tests: one
//! `name<TAB>crc32` row per pinned output in `tests/golden/digests.tsv`.
//!
//! A test computes its rows and calls [`check`]. Any row whose digest
//! moved (or that the table lacks) fails the test, and the failure
//! lists every such row with both digests. Running with `CNE_BLESS=1`
//! instead rewrites the test's rows in the table and passes.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;

/// Serializes read-modify-write of the table across the tests of one
/// binary (cargo runs test binaries one at a time).
static TABLE: Mutex<()> = Mutex::new(());

/// The digest of one pinned output, as the table stores it.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:08x}", cne_util::crc::crc32(bytes))
}

fn load(path: &Path) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once('\t'))
        .map(|(name, crc)| (name.to_owned(), crc.to_owned()))
        .collect()
}

/// Compares `rows` against the table at `path`, or rewrites them
/// there when `CNE_BLESS=1`.
///
/// # Panics
/// Panics listing every moved or missing row.
pub fn check(path: &Path, rows: &[(String, String)]) {
    let _guard = TABLE.lock().unwrap_or_else(|e| e.into_inner());
    let mut table = load(path);
    if std::env::var("CNE_BLESS").is_ok_and(|v| v == "1") {
        for (name, crc) in rows {
            table.insert(name.clone(), crc.clone());
        }
        let mut text = String::from(
            "# Golden digests (CRC-32 of each pinned output). Rewrite with CNE_BLESS=1.\n",
        );
        for (name, crc) in &table {
            text.push_str(&format!("{name}\t{crc}\n"));
        }
        std::fs::write(path, text).expect("write the golden table");
        return;
    }
    let moved: Vec<String> = rows
        .iter()
        .filter(|(name, crc)| table.get(name) != Some(crc))
        .map(|(name, crc)| {
            let committed = table.get(name).map_or("(missing)", String::as_str);
            format!("  {name}: committed {committed}, now {crc}")
        })
        .collect();
    assert!(
        moved.is_empty(),
        "{} golden row(s) moved (CNE_BLESS=1 rewrites {}):\n{}",
        moved.len(),
        path.display(),
        moved.join("\n")
    );
}
