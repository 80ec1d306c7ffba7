//! The content-addressed result store under `results/`.
//!
//! Every completed config writes one JSON file
//! `results/<experiment>/cells/<cache-key>.json` holding the config,
//! seed and artifact. Because the file name is a hash of everything
//! that determines the result, the build fingerprint among it (see
//! [`crate::hash`]), re-running a sweep turns already-computed cells
//! into cache hits, and an interrupted sweep resumes from whatever
//! finished — writes go through a temp file + rename so a kill
//! mid-write never leaves a corrupt entry behind.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::experiment::{Artifact, Config};
use crate::hash::content_hash;
use crate::value::Value;

/// Trailer separating the JSON body from its whole-entry checksum.
const CHECKSUM_TRAILER: &str = "\nchecksum=";

/// A per-experiment content-addressed artifact store.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
    experiment: String,
}

impl ResultStore {
    /// Opens (and creates) the store for `experiment` under `root`.
    pub fn open(root: &Path, experiment: &str) -> io::Result<ResultStore> {
        let dir = root.join(experiment).join("cells");
        fs::create_dir_all(&dir)?;
        Ok(ResultStore {
            dir,
            experiment: experiment.to_string(),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Loads the artifact stored under `key`, if present and intact. A
    /// corrupt entry (interrupted write on a non-atomic filesystem,
    /// manual editing, bit rot) is treated as a miss, not an error: the
    /// cell simply re-runs.
    ///
    /// Two independent integrity layers must both pass: the whole-entry
    /// checksum trailer (catches any byte damage, including to metadata
    /// fields the artifact hash does not cover) and the recorded
    /// artifact hash (catches a substituted artifact with a consistently
    /// rewritten trailer).
    pub fn load(&self, key: &str) -> Option<Artifact> {
        let text = fs::read_to_string(self.path_for(key)).ok()?;
        let (body, checksum) = text.rsplit_once(CHECKSUM_TRAILER)?;
        if content_hash(body.as_bytes()) != checksum.trim_end() {
            return None;
        }
        let v = Value::parse(body).ok()?;
        let artifact_value = v.get("artifact")?;
        let artifact_hash = content_hash(artifact_value.encode().as_bytes());
        // Refuse entries whose recorded hash no longer matches the
        // content — a truncated or tampered file must re-run.
        if v.get("artifact_hash")?.as_str()? != artifact_hash {
            return None;
        }
        Artifact::from_value(artifact_value)
    }

    /// Persists one completed config atomically and returns the
    /// artifact's content hash.
    pub fn store(
        &self,
        key: &str,
        config: &Config,
        seed: u64,
        artifact: &Artifact,
        elapsed_ms: f64,
    ) -> io::Result<String> {
        let artifact_value = artifact.to_value();
        let artifact_hash = content_hash(artifact_value.encode().as_bytes());
        let mut entry = Value::object();
        entry.set("key", key);
        entry.set("experiment", self.experiment.as_str());
        entry.set("config", Value::Object(config.entries().to_vec()));
        entry.set("seed", seed);
        entry.set("elapsed_ms", elapsed_ms);
        entry.set("artifact_hash", artifact_hash.as_str());
        entry.set("artifact", artifact_value);

        let final_path = self.path_for(key);
        let tmp_path = self.dir.join(format!(".{key}.{}.tmp", std::process::id()));
        // Body, then a checksum over the exact body bytes: `load`
        // re-hashes everything above the trailer, so no single flipped,
        // dropped or inserted byte can survive into a cache hit.
        let body = entry.encode();
        let checksum = content_hash(body.as_bytes());
        fs::write(&tmp_path, format!("{body}{CHECKSUM_TRAILER}{checksum}"))?;
        fs::rename(&tmp_path, &final_path)?;
        Ok(artifact_hash)
    }

    /// Writes a cell's metrics report next to its entry as
    /// `<key>.metrics.json`. Sidecars are observational output — they are
    /// never read back, never hashed, and never count as cache entries.
    pub fn store_metrics(&self, key: &str, json: &str) -> io::Result<()> {
        fs::write(self.dir.join(format!("{key}.metrics.json")), json)
    }

    /// Number of entries currently stored (metrics sidecars excluded).
    pub fn len(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|it| {
                it.filter_map(Result::ok)
                    .filter(|e| {
                        let path = e.path();
                        path.extension().is_some_and(|x| x == "json")
                            && !path.file_stem().is_some_and(|s| {
                                Path::new(s).extension().is_some_and(|x| x == "metrics")
                            })
                    })
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ragnar-harness-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_load_roundtrip_and_miss() {
        let root = scratch_dir("roundtrip");
        let store = ResultStore::open(&root, "unit").expect("open");
        assert!(store.is_empty());
        let cfg = Config::new().with("x", 3u64);
        let art = Artifact::text("hello\n").with_metric("v", 3u64);
        store.store("k1", &cfg, 9, &art, 1.5).expect("store");
        assert_eq!(store.load("k1"), Some(art));
        assert!(store.load("k2").is_none());
        // Metrics sidecars land next to the cell but are not entries.
        assert_eq!(store.len(), 1);
        store
            .store_metrics("k1", "{\"counters\":{}}")
            .expect("sidecar");
        assert!(store.dir().join("k1.metrics.json").exists());
        assert_eq!(store.len(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_entry_is_a_miss() {
        let root = scratch_dir("corrupt");
        let store = ResultStore::open(&root, "unit").expect("open");
        let cfg = Config::new();
        let art = Artifact::text("hello");
        store.store("k1", &cfg, 0, &art, 0.1).expect("store");
        // Truncate the file mid-entry, as an interrupted write would.
        let path = store.dir().join("k1.json");
        let text = fs::read_to_string(&path).expect("read");
        fs::write(&path, &text[..text.len() / 2]).expect("truncate");
        assert!(store.load("k1").is_none());
        // Tampering with content (hash mismatch) is also a miss.
        fs::write(&path, text.replace("hello", "jellp")).expect("tamper");
        assert!(store.load("k1").is_none());
        let _ = fs::remove_dir_all(&root);
    }

    /// Systematic corruption fuzz: truncation at every eighth byte and a
    /// bit flip at every byte offset must each read back as a clean miss
    /// — never a panic, never a wrong artifact served as a hit.
    #[test]
    fn any_single_corruption_is_a_miss() {
        let root = scratch_dir("fuzz");
        let store = ResultStore::open(&root, "unit").expect("open");
        let cfg = Config::new().with("x", 7u64).with("label", "fuzz-cell");
        let art = Artifact::text("rendered body\n").with_metric("bps", 63_600u64);
        store.store("k1", &cfg, 7, &art, 2.0).expect("store");
        let path = store.dir().join("k1.json");
        let pristine = fs::read(&path).expect("read");
        assert!(store.load("k1").is_some(), "pristine entry must hit");

        for cut in (0..pristine.len()).step_by(8) {
            fs::write(&path, &pristine[..cut]).expect("truncate");
            assert!(
                store.load("k1").is_none(),
                "truncation at {cut}/{} read back as a hit",
                pristine.len()
            );
        }
        for (i, bit) in (0..pristine.len()).zip([1u8, 2, 4, 8, 16, 32, 64, 128].iter().cycle()) {
            let mut damaged = pristine.clone();
            damaged[i] ^= bit;
            fs::write(&path, &damaged).expect("flip");
            if let Some(hit) = store.load("k1") {
                // The only flips allowed to still hit are ones the
                // checksum legitimately cannot see because the decoded
                // content is unchanged — there are none for this layout,
                // so any hit must at least carry the original artifact.
                assert_eq!(hit, art, "bit flip at byte {i} served damage");
            }
        }

        // And after all that abuse, restoring the pristine bytes hits.
        fs::write(&path, &pristine).expect("restore");
        assert!(store.load("k1").is_some());
        let _ = fs::remove_dir_all(&root);
    }
}
