//! `repro`'s output paths: checked before the study runs, written without
//! panicking after it.
//!
//! A typo'd `--json`, `--csv` or `--metrics` path used to panic on the
//! final write, after the whole study had run. [`validate_output_file`]
//! and [`validate_output_dir`] reject such paths up front, and
//! [`write_output`] turns a write that still fails (permissions, a full
//! disk) into an [`OutputError`] instead of a panic.

use std::path::{Path, PathBuf};

/// An output path `repro` cannot write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutputError {
    /// The file's parent directory does not exist.
    MissingParent {
        /// The requested output file.
        path: PathBuf,
        /// The parent that would have to exist.
        parent: PathBuf,
    },
    /// The path (or an ancestor it needs) exists but is not a directory.
    NotADirectory {
        /// The offending path.
        path: PathBuf,
    },
    /// An output file path names an existing directory.
    IsADirectory {
        /// The offending path.
        path: PathBuf,
    },
    /// The write itself failed.
    Write {
        /// The file being written.
        path: PathBuf,
        /// The I/O error, rendered.
        error: String,
    },
}

impl std::fmt::Display for OutputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OutputError::MissingParent { path, parent } => write!(
                f,
                "output file {} cannot be written: directory {} does not exist",
                path.display(),
                parent.display()
            ),
            OutputError::NotADirectory { path } => {
                write!(f, "output path {} is not a directory", path.display())
            }
            OutputError::IsADirectory { path } => {
                write!(f, "output file {} is a directory", path.display())
            }
            OutputError::Write { path, error } => {
                write!(f, "cannot write {}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for OutputError {}

/// Checks that `path` can be created as a file: its parent directory
/// exists and the path is not itself a directory. A bare file name has the
/// current directory as its parent.
pub fn validate_output_file(path: &Path) -> Result<(), OutputError> {
    if path.is_dir() {
        return Err(OutputError::IsADirectory { path: path.to_path_buf() });
    }
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => return Ok(()),
    };
    if !parent.exists() {
        return Err(OutputError::MissingParent {
            path: path.to_path_buf(),
            parent: parent.to_path_buf(),
        });
    }
    if !parent.is_dir() {
        return Err(OutputError::NotADirectory { path: parent.to_path_buf() });
    }
    Ok(())
}

/// Checks that `dir` is a directory or can be created as one (missing
/// levels included): its nearest existing ancestor must be a directory.
pub fn validate_output_dir(dir: &Path) -> Result<(), OutputError> {
    match dir.ancestors().find(|a| !a.as_os_str().is_empty() && a.exists()) {
        Some(existing) if !existing.is_dir() => {
            Err(OutputError::NotADirectory { path: existing.to_path_buf() })
        }
        _ => Ok(()),
    }
}

/// Writes `contents` to `path`, creating missing parent directories only
/// when `create_parents` is set (the CSV directory).
pub fn write_output(
    path: &Path,
    contents: impl AsRef<[u8]>,
    create_parents: bool,
) -> Result<(), OutputError> {
    let err =
        |e: std::io::Error| OutputError::Write { path: path.to_path_buf(), error: e.to_string() };
    if create_parents {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(err)?;
        }
    }
    std::fs::write(path, contents).map_err(err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ipv6web-output-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn file_paths() {
        let d = scratch("file");
        assert_eq!(validate_output_file(&d.join("r.json")), Ok(()));
        assert_eq!(validate_output_file(Path::new("r.json")), Ok(()), "bare name: cwd parent");
        assert_eq!(
            validate_output_file(&d.join("nope/r.json")),
            Err(OutputError::MissingParent { path: d.join("nope/r.json"), parent: d.join("nope") })
        );
        assert_eq!(validate_output_file(&d), Err(OutputError::IsADirectory { path: d.clone() }));
        std::fs::write(d.join("f"), b"x").unwrap();
        assert_eq!(
            validate_output_file(&d.join("f/r.json")),
            Err(OutputError::NotADirectory { path: d.join("f") })
        );
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn dir_paths() {
        let d = scratch("dir");
        assert_eq!(validate_output_dir(&d), Ok(()));
        assert_eq!(validate_output_dir(&d.join("a/b/c")), Ok(()), "missing levels are created");
        assert_eq!(validate_output_dir(Path::new("csv-out")), Ok(()));
        std::fs::write(d.join("f"), b"x").unwrap();
        assert_eq!(
            validate_output_dir(&d.join("f/csv")),
            Err(OutputError::NotADirectory { path: d.join("f") })
        );
        assert_eq!(
            validate_output_dir(&d.join("f")),
            Err(OutputError::NotADirectory { path: d.join("f") })
        );
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn failed_write_is_an_error_not_a_panic() {
        let d = scratch("write");
        write_output(&d.join("x/y/z.csv"), "a,b\n", true).unwrap();
        assert_eq!(std::fs::read_to_string(d.join("x/y/z.csv")).unwrap(), "a,b\n");
        let err = write_output(&d.join("missing/r.json"), "{}", false).unwrap_err();
        assert!(matches!(err, OutputError::Write { .. }), "{err:?}");
        assert!(err.to_string().contains("cannot write"), "{err}");
        std::fs::remove_dir_all(&d).ok();
    }
}
