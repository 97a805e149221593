//! Set-up shared by the workloads: compress the models, write them to a
//! `CSMR` registry directory, read them back, and precompute the
//! dense-lane reference outputs every reply is checked against.

use std::path::{Path, PathBuf};
use std::time::Instant;

use cs_nn::data::lif_spike_train;
use cs_nn::spec::Scale;
use cs_registry::{ModelArtifact, RegistryStore};
use cs_serve::loadgen::request_input;
use cs_serve::ServableModel;
use cs_sparsity::structured::PruneMode;

/// Inputs in each model's seeded pool; requests draw from it.
pub const POOL: usize = 64;

/// Drive current of the LIF spike frames fed to `mlp-spiking`.
pub const SPIKE_DRIVE: f64 = 0.25;

/// Simulation steps per LIF spike frame.
const SPIKE_STEPS: usize = 20;

/// The four full-scale MLP variants the workloads draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Paper settings, coarse blocks compiled to block-CSR.
    Mlp,
    /// 2:4 semi-structured pruning.
    TwoFour,
    /// Bank-balanced pruning, 2 of every 8 inputs.
    BankBalanced,
    /// The paper MLP driven with LIF spike frames.
    Spiking,
}

impl Variant {
    /// Every variant, in report order.
    pub const ALL: [Variant; 4] = [
        Variant::Mlp,
        Variant::TwoFour,
        Variant::BankBalanced,
        Variant::Spiking,
    ];

    /// Registry name of the model.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Mlp => "mlp",
            Variant::TwoFour => "mlp-two_four",
            Variant::BankBalanced => "mlp-bank_balanced",
            Variant::Spiking => "mlp-spiking",
        }
    }

    /// Runs the compression pipeline (prune, quantize, compress).
    pub fn compress(self, seed: u64) -> Result<ServableModel, String> {
        let built = match self {
            Variant::Mlp => ServableModel::mlp(Scale::Full, seed),
            Variant::TwoFour => ServableModel::mlp_with_mode(PruneMode::TwoFour, Scale::Full, seed),
            Variant::BankBalanced => ServableModel::mlp_with_mode(
                PruneMode::BankBalanced { bank: 8, k: 2 },
                Scale::Full,
                seed,
            ),
            Variant::Spiking => ServableModel::spiking_mlp(Scale::Full, seed),
        };
        built.map_err(|e| format!("compressing {}: {e}", self.name()))
    }

    /// The model's natural input number `i` of the pool seeded by
    /// `seed`: LIF spike frames for the spiking model, the serving
    /// request distribution (about a third exact zeros) otherwise.
    pub fn input(self, n_in: usize, i: usize, seed: u64) -> Vec<f32> {
        match self {
            Variant::Spiking => {
                lif_spike_train(n_in, SPIKE_STEPS, SPIKE_DRIVE, seed ^ (i as u64)).into_vec()
            }
            _ => request_input(n_in, i as u64, seed),
        }
    }
}

/// One model ready to serve, with its input pool and reference outputs.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Version number it was stored under.
    pub version: u32,
    /// The model as read back from the registry.
    pub model: ServableModel,
    /// Seeded inputs.
    pub inputs: Vec<Vec<f32>>,
}

impl Prepared {
    /// Registry name.
    pub fn name(&self) -> &str {
        &self.model.name
    }
}

/// The dense-lane output for every input: the reference all served and
/// in-process results must equal bit for bit.
pub fn reference_outputs(p: &Prepared) -> Result<Vec<Vec<f32>>, String> {
    let lane = p.model.dense_lane();
    p.inputs
        .iter()
        .map(|x| {
            lane.forward(x)
                .map_err(|e| format!("dense lane of {}: {e}", p.name()))
        })
        .collect()
}

/// Bit-for-bit equality of two output vectors.
pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Wall time of each step of one preparation, for the traced run.
#[derive(Debug, Clone, Default)]
pub struct PrepTimings {
    /// Per model: compression pipeline time, ns.
    pub compress_ns: Vec<(String, u64)>,
    /// Per artifact: `RegistryStore::save` time, ns.
    pub encode_ns: Vec<u64>,
    /// Per artifact: `RegistryStore::load` time, ns.
    pub decode_ns: Vec<u64>,
}

/// What to build: `(variant, version, weight seed)` per stored model.
pub type Plan = Vec<(Variant, u32, u64)>;

/// Compresses every planned model, saves it to a registry in `dir`,
/// and reads it back, so everything downstream runs on the decoded
/// artifact. Inputs are drawn from `input_seed`.
pub fn prepare(
    plan: &Plan,
    dir: &Path,
    input_seed: u64,
) -> Result<(Vec<Prepared>, PrepTimings), String> {
    let store = RegistryStore::open(dir).map_err(|e| format!("opening registry: {e}"))?;
    let mut timings = PrepTimings::default();
    let mut out = Vec::new();
    for &(variant, version, seed) in plan {
        let t = Instant::now();
        let model = variant.compress(seed)?;
        timings
            .compress_ns
            .push((variant.name().to_string(), elapsed_ns(t)));
        let artifact = ModelArtifact {
            name: model.name.clone(),
            version,
            layers: model.layers,
        };
        let t = Instant::now();
        store
            .save(&artifact)
            .map_err(|e| format!("saving {}: {e}", artifact.key()))?;
        timings.encode_ns.push(elapsed_ns(t));
        let t = Instant::now();
        let loaded = store
            .load(&artifact.name, version)
            .map_err(|e| format!("loading {}: {e}", artifact.key()))?;
        timings.decode_ns.push(elapsed_ns(t));
        let model = ServableModel::from_layers(loaded.name, loaded.layers)
            .map_err(|e| format!("assembling {}: {e}", artifact.key()))?;
        let inputs = (0..POOL)
            .map(|i| variant.input(model.n_in, i, input_seed))
            .collect();
        out.push(Prepared {
            version,
            model,
            inputs,
        });
    }
    Ok((out, timings))
}

/// Nanoseconds since `t`.
pub fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A scratch directory under the benchmark's output directory, removed
/// on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `<out>/<tag>-<pid>`, emptying any leftover.
    pub fn new(out: &Path, tag: &str) -> Result<ScratchDir, String> {
        let dir = out.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_inputs() {
        for v in Variant::ALL {
            assert!(bits_equal(&v.input(784, 3, 11), &v.input(784, 3, 11)));
            assert!(!bits_equal(&v.input(784, 3, 11), &v.input(784, 3, 12)));
        }
    }

    #[test]
    fn corrupted_reference_is_caught() {
        let model = Variant::Mlp.compress(5).expect("compress");
        let inputs: Vec<Vec<f32>> = (0..4)
            .map(|i| Variant::Mlp.input(model.n_in, i, 9))
            .collect();
        let p = Prepared {
            version: 1,
            model,
            inputs,
        };
        let mut reference = reference_outputs(&p).expect("reference");
        let served = p.model.sparse_lane();
        for (x, want) in p.inputs.iter().zip(&reference) {
            assert!(bits_equal(&served.forward(x).expect("forward"), want));
        }
        // Flip the lowest mantissa bit of one expected value.
        reference[2][0] = f32::from_bits(reference[2][0].to_bits() ^ 1);
        let got = served.forward(&p.inputs[2]).expect("forward");
        assert!(!bits_equal(&got, &reference[2]));
    }
}
