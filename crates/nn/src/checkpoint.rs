//! Checkpointing: persist and restore network weights (and masks).
//!
//! ShrinkBench's reproducibility story rests on *standardized pretrained
//! weights*; this module provides the file format for them — a JSON
//! encoding of [`ParamSnapshot`]s with a header guarding against loading
//! a checkpoint into the wrong architecture.

use crate::network::{Network, NetworkExt};
use crate::param::ParamSnapshot;
use sb_json::json_struct;
use std::error::Error;
use std::fmt;
use std::path::Path;

/// On-disk checkpoint: a format version, an architecture fingerprint, and
/// the parameter snapshots.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    version: u32,
    fingerprint: Vec<(String, Vec<usize>)>,
    params: Vec<ParamSnapshot>,
}

json_struct!(Checkpoint { version, fingerprint, params });

/// Errors from checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file is not a valid checkpoint.
    Parse(sb_json::JsonError),
    /// The checkpoint belongs to a different architecture.
    FingerprintMismatch {
        /// First differing parameter (name or shape), for diagnostics.
        detail: String,
    },
    /// The checkpoint format version is unsupported.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
    },
    /// The header matches but a parameter snapshot does not: a missing or
    /// extra snapshot, another name or value shape, or a mask of another
    /// shape or with entries other than 0 and 1.
    Malformed {
        /// The first offending snapshot and what is wrong with it.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            CheckpointError::Parse(e) => write!(f, "checkpoint is not valid JSON: {e}"),
            CheckpointError::FingerprintMismatch { detail } => {
                write!(f, "checkpoint does not match this architecture: {detail}")
            }
            CheckpointError::UnsupportedVersion { found } => {
                write!(f, "unsupported checkpoint version {found}")
            }
            CheckpointError::Malformed { detail } => {
                write!(f, "checkpoint parameters are malformed: {detail}")
            }
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

const FORMAT_VERSION: u32 = 1;

fn fingerprint_of(network: &dyn Network) -> Vec<(String, Vec<usize>)> {
    let mut fp = Vec::new();
    network.visit_params_ref(&mut |p| {
        fp.push((p.name().to_string(), p.value().dims().to_vec()));
    });
    fp
}

impl Checkpoint {
    /// Captures a network's current weights and masks.
    pub fn capture(network: &dyn Network) -> Self {
        Checkpoint {
            version: FORMAT_VERSION,
            fingerprint: fingerprint_of(network),
            params: network.snapshot(),
        }
    }

    /// Installs the checkpoint into `network`. Every snapshot is checked
    /// before the network is touched, so on error the network is
    /// unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::FingerprintMismatch`] when the
    /// architecture differs (parameter names or shapes), and
    /// [`CheckpointError::Malformed`] when the snapshots disagree with the
    /// header or hold an invalid mask.
    pub fn install(&self, network: &mut dyn Network) -> Result<(), CheckpointError> {
        if self.version != FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion {
                found: self.version,
            });
        }
        let fp = fingerprint_of(network);
        if fp.len() != self.fingerprint.len() {
            return Err(CheckpointError::FingerprintMismatch {
                detail: format!(
                    "parameter count {} vs checkpoint {}",
                    fp.len(),
                    self.fingerprint.len()
                ),
            });
        }
        for (a, b) in fp.iter().zip(&self.fingerprint) {
            if a != b {
                return Err(CheckpointError::FingerprintMismatch {
                    detail: format!("{:?} vs checkpoint {:?}", a, b),
                });
            }
        }
        self.check_params(&fp)
            .map_err(|detail| CheckpointError::Malformed { detail })?;
        network.restore(&self.params);
        Ok(())
    }

    /// Checks every snapshot against the network's `(name, shape)` list:
    /// the count, each name and value shape, and each mask's shape and
    /// binarity — everything [`NetworkExt::restore`] would otherwise
    /// assert, or accept without the checks of `Param::set_mask`.
    fn check_params(&self, fp: &[(String, Vec<usize>)]) -> Result<(), String> {
        if self.params.len() != fp.len() {
            return Err(format!(
                "{} parameter snapshots for {} parameters",
                self.params.len(),
                fp.len()
            ));
        }
        for (snap, (name, dims)) in self.params.iter().zip(fp) {
            if &snap.name != name {
                return Err(format!("snapshot {:?} where {name:?} belongs", snap.name));
            }
            if snap.value.dims() != dims.as_slice() {
                return Err(format!(
                    "value shape {:?} for {name:?} of shape {dims:?}",
                    snap.value.dims()
                ));
            }
            if let Some(mask) = &snap.mask {
                if mask.dims() != dims.as_slice() {
                    return Err(format!(
                        "mask shape {:?} for {name:?} of shape {dims:?}",
                        mask.dims()
                    ));
                }
                if !mask.data().iter().all(|&m| m == 0.0 || m == 1.0) {
                    return Err(format!("mask for {name:?} is not binary"));
                }
            }
        }
        Ok(())
    }

    /// Writes the checkpoint as JSON.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let json = sb_json::to_vec(self).map_err(CheckpointError::Parse)?;
        std::fs::write(path, json)?;
        Ok(())
    }

    /// Reads a checkpoint from JSON.
    ///
    /// # Errors
    ///
    /// Returns I/O or parse errors.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)?;
        sb_json::from_slice(&bytes).map_err(CheckpointError::Parse)
    }
}

/// Convenience: `Checkpoint::capture(net).save(path)`.
///
/// # Errors
///
/// Propagates [`CheckpointError`].
pub fn save_network(network: &dyn Network, path: &Path) -> Result<(), CheckpointError> {
    Checkpoint::capture(network).save(path)
}

/// Convenience: load and install in one step.
///
/// # Errors
///
/// Propagates [`CheckpointError`].
pub fn load_network(network: &mut dyn Network, path: &Path) -> Result<(), CheckpointError> {
    Checkpoint::load(path)?.install(network)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use crate::network::Mode;
    use sb_tensor::{Rng, Tensor};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sb-nn-checkpoint-{name}.json"))
    }

    #[test]
    fn save_load_round_trip_preserves_outputs() {
        let mut rng = Rng::seed_from(0);
        let mut net = models::mlp(4, &[8], 3, &mut rng);
        let x = Tensor::rand_normal(&[2, 4], 0.0, 1.0, &mut rng);
        let y0 = net.forward(&x, Mode::Eval);
        let path = tmp("roundtrip");
        save_network(&net, &path).unwrap();

        let mut other = models::mlp(4, &[8], 3, &mut Rng::seed_from(99));
        assert_ne!(other.forward(&x, Mode::Eval), y0);
        load_network(&mut other, &path).unwrap();
        assert_eq!(other.forward(&x, Mode::Eval), y0);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn masks_survive_checkpointing() {
        let mut rng = Rng::seed_from(1);
        let mut net = models::mlp(4, &[8], 3, &mut rng);
        net.visit_params(&mut |p| {
            if p.kind().prunable_by_default() {
                p.set_mask(Tensor::from_fn(p.value().dims(), |i| (i % 2) as f32));
            }
        });
        let path = tmp("masks");
        save_network(&net, &path).unwrap();
        let mut other = models::mlp(4, &[8], 3, &mut Rng::seed_from(2));
        load_network(&mut other, &path).unwrap();
        let mut masked = 0;
        other.visit_params_ref(&mut |p| {
            if p.mask().is_some() {
                masked += 1;
            }
        });
        assert!(masked > 0);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn wrong_architecture_is_rejected() {
        let mut rng = Rng::seed_from(3);
        let net = models::mlp(4, &[8], 3, &mut rng);
        let path = tmp("wrong-arch");
        save_network(&net, &path).unwrap();
        let mut other = models::mlp(4, &[16], 3, &mut rng);
        let err = load_network(&mut other, &path).unwrap_err();
        assert!(matches!(err, CheckpointError::FingerprintMismatch { .. }));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn corrupt_file_is_a_parse_error() {
        let path = tmp("corrupt");
        std::fs::write(&path, b"not json").unwrap();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(CheckpointError::Parse(_))
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(matches!(
            Checkpoint::load(Path::new("/nonexistent/sb.json")),
            Err(CheckpointError::Io(_))
        ));
    }

    /// Saves `cp` to a file, loads it back into a fresh network and
    /// checks that a failed install left that network unchanged.
    fn install_from_file(cp: &Checkpoint, name: &str) -> Result<(), CheckpointError> {
        let path = tmp(name);
        cp.save(&path).unwrap();
        let mut net = models::mlp(4, &[8], 3, &mut Rng::seed_from(5));
        let before = net.snapshot();
        let result = load_network(&mut net, &path);
        let _ = std::fs::remove_file(path);
        if result.is_err() {
            assert_eq!(
                net.snapshot(),
                before,
                "a failed install changed the network"
            );
        }
        result
    }

    fn masked_checkpoint() -> Checkpoint {
        let mut net = models::mlp(4, &[8], 3, &mut Rng::seed_from(6));
        net.visit_params(&mut |p| {
            if p.kind().prunable_by_default() {
                p.set_mask(Tensor::from_fn(p.value().dims(), |i| (i % 2) as f32));
            }
        });
        Checkpoint::capture(&net)
    }

    #[test]
    fn short_param_list_is_rejected() {
        let mut cp = masked_checkpoint();
        cp.params.pop();
        let err = install_from_file(&cp, "short").unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed { .. }), "{err}");
    }

    #[test]
    fn mask_of_another_shape_is_rejected() {
        let mut cp = masked_checkpoint();
        cp.params[0].mask = Some(Tensor::ones(&[2, 2]));
        let err = install_from_file(&cp, "mask-shape").unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed { .. }), "{err}");
        assert!(err.to_string().contains("mask shape"), "{err}");
    }

    #[test]
    fn non_binary_mask_is_rejected() {
        let mut cp = masked_checkpoint();
        let mask = cp.params[0].mask.as_mut().expect("weights are masked");
        mask.data_mut()[1] = 0.5;
        let err = install_from_file(&cp, "mask-binary").unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed { .. }), "{err}");
        assert!(err.to_string().contains("binary"), "{err}");
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut rng = Rng::seed_from(4);
        let net = models::mlp(4, &[8], 3, &mut rng);
        let mut cp = Checkpoint::capture(&net);
        cp.version = 999;
        let mut other = models::mlp(4, &[8], 3, &mut rng);
        assert!(matches!(
            cp.install(&mut other),
            Err(CheckpointError::UnsupportedVersion { found: 999 })
        ));
    }
}
