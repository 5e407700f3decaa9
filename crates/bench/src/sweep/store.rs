//! The content-addressed cell store: `<dir>/<hash>.json`, one file per
//! finished cell.
//!
//! Files are named by the cell's content hash ([`CellId::file_name`])
//! and written atomically (temp file + rename), so a killed sweep
//! leaves either a complete, loadable cell or no cell — never a torn
//! one. Loading re-verifies everything a hostile filesystem could
//! break: the document must parse, carry this schema, name the same
//! cell identity (guards against renamed/moved files and hash
//! collisions), agree on the payload length, and reproduce the
//! recorded payload checksum (FNV-1a over the canonical value
//! rendering — catches hand-edited values whose file still parses).
//! Anything less is [`CellLoad::Corrupt`] and gets recomputed, never
//! merged.

use std::io;
use std::path::{Path, PathBuf};

use crate::hashing::fnv1a64_hex;
use crate::json::{self, Value};

use super::cell::CellId;

/// Schema tag of every cell document.
pub const CELL_SCHEMA: &str = "diversim-cell/v1";

/// What loading a cell produced.
#[derive(Debug, Clone, PartialEq)]
pub enum CellLoad {
    /// A verified payload.
    Hit(Vec<f64>),
    /// No file for this cell.
    Miss,
    /// A file exists but failed verification; the reason is logged by
    /// the sweep engine and the cell is recomputed.
    Corrupt(String),
}

/// A directory of content-addressed cell files.
#[derive(Debug, Clone)]
pub struct CellStore {
    dir: PathBuf,
}

impl CellStore {
    /// A store rooted at `dir` (created lazily on first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CellStore { dir: dir.into() }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where `id`'s cell lives.
    pub fn path_for(&self, id: &CellId) -> PathBuf {
        self.dir.join(id.file_name())
    }

    /// The canonical rendering of the payload array — the byte string
    /// the integrity checksum covers.
    fn values_json(values: &[f64]) -> String {
        Value::Array(values.iter().map(|&v| Value::Number(v)).collect()).to_json()
    }

    /// The full document text for `id` with payload `values`.
    pub fn render(id: &CellId, values: &[f64]) -> String {
        let payload = Self::values_json(values);
        let check = fnv1a64_hex(payload.as_bytes());
        let doc = Value::Object(vec![
            ("schema".into(), Value::String(CELL_SCHEMA.into())),
            ("experiment".into(), Value::String(id.experiment.clone())),
            (
                "profile".into(),
                Value::String(id.profile.name().to_string()),
            ),
            ("key".into(), Value::String(id.key.clone())),
            ("len".into(), Value::Number(values.len() as f64)),
            ("check".into(), Value::String(check)),
            (
                "values".into(),
                Value::Array(values.iter().map(|&v| Value::Number(v)).collect()),
            ),
        ]);
        doc.to_json()
    }

    /// Persists `id`'s payload atomically. Panics on non-finite payload
    /// values — the cell contract forbids them (JSON cannot round-trip
    /// them), so one slipping through is a bug in the declaring
    /// experiment, not an I/O condition.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, id: &CellId, values: &[f64]) -> io::Result<PathBuf> {
        assert!(
            values.iter().all(|v| v.is_finite()),
            "cell {} produced a non-finite payload value",
            id.canonical()
        );
        std::fs::create_dir_all(&self.dir)?;
        let path = self.path_for(id);
        let tmp = self
            .dir
            .join(format!("{}.tmp.{}", id.file_name(), std::process::id()));
        std::fs::write(&tmp, Self::render(id, values))?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Loads and verifies `id`'s cell (see the module docs for what
    /// verification covers).
    pub fn load(&self, id: &CellId) -> CellLoad {
        let path = self.path_for(id);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return CellLoad::Miss,
            Err(e) => return CellLoad::Corrupt(format!("unreadable: {e}")),
        };
        let doc = match json::parse(&text) {
            Ok(d) => d,
            Err(e) => return CellLoad::Corrupt(format!("invalid JSON: {e}")),
        };
        if doc.get("schema").and_then(Value::as_str) != Some(CELL_SCHEMA) {
            return CellLoad::Corrupt("wrong or missing schema".into());
        }
        let same_identity = doc.get("experiment").and_then(Value::as_str) == Some(&id.experiment)
            && doc.get("profile").and_then(Value::as_str) == Some(id.profile.name())
            && doc.get("key").and_then(Value::as_str) == Some(&id.key);
        if !same_identity {
            return CellLoad::Corrupt("identity mismatch (file names another cell)".into());
        }
        let Some(raw) = doc.get("values").and_then(Value::as_array) else {
            return CellLoad::Corrupt("missing values array".into());
        };
        let mut values = Vec::with_capacity(raw.len());
        for v in raw {
            match v.as_f64() {
                Some(x) if x.is_finite() => values.push(x),
                _ => return CellLoad::Corrupt("non-numeric payload value".into()),
            }
        }
        match doc.get("len").and_then(Value::as_f64) {
            Some(n) if n == values.len() as f64 => {}
            _ => {
                return CellLoad::Corrupt(format!(
                    "length mismatch: len field disagrees with {} values",
                    values.len()
                ))
            }
        }
        let expected = fnv1a64_hex(Self::values_json(&values).as_bytes());
        if doc.get("check").and_then(Value::as_str) != Some(expected.as_str()) {
            return CellLoad::Corrupt("payload checksum mismatch".into());
        }
        CellLoad::Hit(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Profile;

    fn tmp_store(tag: &str) -> CellStore {
        let dir =
            std::env::temp_dir().join(format!("diversim-cell-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        CellStore::new(dir)
    }

    fn id(key: &str) -> CellId {
        CellId::new("e99_demo", Profile::Smoke, key)
    }

    #[test]
    fn save_load_round_trip() {
        let store = tmp_store("roundtrip");
        let id = id("k=1");
        assert_eq!(store.load(&id), CellLoad::Miss);
        let values = vec![0.1, 2.0, 3.5e-7, -4.0];
        store.save(&id, &values).unwrap();
        assert_eq!(store.load(&id), CellLoad::Hit(values));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn truncated_file_is_corrupt_not_a_hit() {
        let store = tmp_store("truncate");
        let id = id("k=2");
        let path = store.save(&id, &[1.0, 2.0, 3.0]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(matches!(store.load(&id), CellLoad::Corrupt(_)));
        // A nesting bomb in place of the cell is corrupt too, not an abort.
        std::fs::write(&path, "[".repeat(400_000)).unwrap();
        assert!(matches!(store.load(&id), CellLoad::Corrupt(_)));
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn hand_edited_value_is_caught_by_the_checksum() {
        let store = tmp_store("edit");
        let id = id("k=3");
        let path = store.save(&id, &[0.25, 0.5]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let edited = text.replace("0.25", "0.26");
        assert_ne!(edited, text, "test must actually change the payload");
        std::fs::write(&path, edited).unwrap();
        match store.load(&id) {
            CellLoad::Corrupt(reason) => assert!(reason.contains("checksum")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn dropped_array_element_is_caught_by_the_length_field() {
        let store = tmp_store("len");
        let id = id("k=4");
        let path = store.save(&id, &[1.0, 2.0]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("[1,2]", "[1]")).unwrap();
        match store.load(&id) {
            CellLoad::Corrupt(reason) => assert!(reason.contains("length")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn file_moved_under_another_cells_name_is_rejected() {
        let store = tmp_store("move");
        let (a, b) = (id("k=5"), id("k=6"));
        let path_a = store.save(&a, &[9.0]).unwrap();
        std::fs::rename(&path_a, store.path_for(&b)).unwrap();
        match store.load(&b) {
            CellLoad::Corrupt(reason) => assert!(reason.contains("identity")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_payload_is_a_bug_not_data() {
        let store = tmp_store("nan");
        let _ = store.save(&id("k=7"), &[f64::NAN]);
    }
}
