//! The benchmark's inputs and how a seed draws them.
//!
//! Serve workloads draw from the zoo × configuration universe the
//! server knows by name. `compile_large` draws deep networks built
//! from the public model configuration structs. Every draw is a pure
//! function of the seed.

use pypm::engine::Session;
use pypm::graph::Graph;
use pypm::models::{self, GeluVariant, ScaleVariant, TransformerConfig, VisionConfig};

/// SplitMix64: a tiny, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The rule-library configurations served traffic asks for, in the
/// serve protocol's `config=` vocabulary.
pub const SERVE_CONFIGS: [&str; 5] = ["fmha", "epilog", "both", "all", "all+synth39"];

/// The configuration `compile_large` compiles under: the full library.
pub const LARGE_CONFIG: &str = "all";

/// What the output checks and the standalone layer calls need of an
/// input, whichever workload drew it.
pub trait Input {
    /// The input's key in the expected-output file.
    fn key(&self) -> String;
    /// The rule-library configuration it compiles under.
    fn config(&self) -> &'static str;
    /// Builds the input graph into `session`.
    fn build(&self, session: &mut Session) -> Graph;
}

/// One served input: a zoo model under one configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeInput {
    /// Zoo model name.
    pub model: String,
    /// Configuration name (one of [`SERVE_CONFIGS`]).
    pub config: &'static str,
}

impl ServeInput {
    /// The request line sent to the server. Deliberately carries no
    /// `policy=`, `matcher=` or `jobs=`: the server's defaults apply.
    pub fn request(&self) -> String {
        format!("compile {} config={}", self.model, self.config)
    }
}

impl Input for ServeInput {
    fn key(&self) -> String {
        format!("{}@{}", self.model, self.config)
    }

    fn config(&self) -> &'static str {
        self.config
    }

    fn build(&self, session: &mut Session) -> Graph {
        pypm::build_model(session, &self.model).expect("serve inputs name zoo models")
    }
}

/// Every zoo model's name: the transformers, then the CNNs.
fn zoo_names() -> Vec<String> {
    models::hf_zoo()
        .into_iter()
        .map(|c| c.name.to_owned())
        .chain(models::tv_zoo().into_iter().map(|c| c.name.to_owned()))
        .collect()
}

/// Every zoo model × every serve configuration (52 × 5 = 260), in a
/// fixed order.
pub fn serve_universe() -> Vec<ServeInput> {
    let names = zoo_names();
    SERVE_CONFIGS
        .iter()
        .flat_map(|&config| {
            names.iter().map(move |model| ServeInput {
                model: model.clone(),
                config,
            })
        })
        .collect()
}

/// `serve_miss`: the whole universe in one seeded order.
pub fn serve_miss_inputs(seed: u64) -> Vec<ServeInput> {
    let mut all = serve_universe();
    Rng::new(seed, 1).shuffle(&mut all);
    all
}

/// Distinct inputs `serve_hot` keeps hot in the server's cache.
pub const HOT_SET: usize = 32;

/// `serve_hot`: [`HOT_SET`] distinct inputs, stratified so every seed
/// gets the same mix of work: the zoo, sorted by graph size, is cut into
/// [`HOT_SET`] contiguous strata, each contributes one model, and the
/// configurations take turns along the strata.
pub fn serve_hot_inputs(seed: u64) -> Vec<ServeInput> {
    let mut rng = Rng::new(seed, 2);
    let mut session = Session::new();
    let mut sized: Vec<(usize, String)> = zoo_names()
        .into_iter()
        .map(|name| {
            let graph = pypm::build_model(&mut session, &name).expect("zoo names build");
            (graph.live_count(), name)
        })
        .collect();
    sized.sort_unstable();
    let mut picks: Vec<ServeInput> = (0..HOT_SET)
        .map(|i| {
            let stratum = &sized[i * sized.len() / HOT_SET..(i + 1) * sized.len() / HOT_SET];
            ServeInput {
                model: stratum[rng.below(stratum.len())].1.clone(),
                config: SERVE_CONFIGS[i % SERVE_CONFIGS.len()],
            }
        })
        .collect();
    rng.shuffle(&mut picks);
    picks
}

/// One `compile_large` input: a deep network too big for the zoo.
#[derive(Debug, Clone)]
pub enum LargeModel {
    /// A deep transformer stack.
    Transformer(TransformerConfig),
    /// A deep CNN.
    Vision(VisionConfig),
}

/// A named large input from the catalogue.
#[derive(Debug, Clone)]
pub struct LargeInput {
    /// Catalogue name, also its key in the expected-output file.
    pub name: String,
    /// Size tier: a draw takes exactly one input per tier.
    pub tier: usize,
    /// What to build.
    pub model: LargeModel,
}

impl Input for LargeInput {
    fn key(&self) -> String {
        self.name.clone()
    }

    fn config(&self) -> &'static str {
        LARGE_CONFIG
    }

    fn build(&self, session: &mut Session) -> Graph {
        match &self.model {
            LargeModel::Transformer(cfg) => cfg.build(session),
            LargeModel::Vision(cfg) => cfg.build(session),
        }
    }
}

impl LargeInput {
    /// The span name of the build call.
    pub fn build_span(&self) -> &'static str {
        match &self.model {
            LargeModel::Transformer(_) => "TransformerConfig::build",
            LargeModel::Vision(_) => "VisionConfig::build",
        }
    }
}

/// Transformer depths, one tier each.
const STACK_LAYERS: [usize; 3] = [32, 64, 160];
/// CNN tiers by block multiplier over the zoo's ResNet-family stage
/// plans (about 1.2k and 2.3k nodes).
const CNN_SCALE: [usize; 2] = [12, 24];

/// The whole `compile_large` catalogue: every tier in three variants.
/// A seed picks one variant per tier, so every draw has the same size
/// profile (about 1k to 5k nodes) and the same transformer/CNN mix. The
/// sizes keep a pass over the inputs near a second, so a run holds
/// enough compiles of each input for a steady median.
pub fn large_catalogue() -> Vec<LargeInput> {
    let mut out = Vec::new();
    let stack_variants = [
        ("bert", GeluVariant::DivTwo, ScaleVariant::Div, false),
        ("gpt", GeluVariant::MulHalf, ScaleVariant::Mul, false),
        ("deberta", GeluVariant::DivTwo, ScaleVariant::Div, true),
    ];
    for (tier, &layers) in STACK_LAYERS.iter().enumerate() {
        for &(family, gelu, scale, opaque) in &stack_variants {
            out.push(LargeInput {
                name: format!("{family}-l{layers}"),
                tier,
                model: LargeModel::Transformer(TransformerConfig {
                    name: "large-stack",
                    layers,
                    hidden: 64,
                    seq: 64,
                    batch: 1,
                    mlp_factor: 4,
                    gelu,
                    scale,
                    opaque_layernorm: opaque,
                }),
            });
        }
    }
    let base = models::tv_zoo();
    let find = |name: &str| {
        base.iter()
            .find(|c| c.name == name)
            .cloned()
            .expect("zoo model exists")
    };
    let cnn_variants = [find("resnet50"), find("wide_resnet50"), find("resnext50")];
    for (i, &scale) in CNN_SCALE.iter().enumerate() {
        for proto in &cnn_variants {
            let mut cfg = proto.clone();
            cfg.name = "large-cnn";
            for stage in &mut cfg.stages {
                stage.blocks *= scale;
            }
            out.push(LargeInput {
                name: format!("{}-x{scale}", proto.name),
                tier: STACK_LAYERS.len() + i,
                model: LargeModel::Vision(cfg),
            });
        }
    }
    out
}

/// `compile_large`: one seeded variant per tier, in seeded order.
pub fn large_inputs(seed: u64) -> Vec<LargeInput> {
    let mut rng = Rng::new(seed, 3);
    let catalogue = large_catalogue();
    let tiers = STACK_LAYERS.len() + CNN_SCALE.len();
    let mut picks: Vec<LargeInput> = (0..tiers)
        .map(|tier| {
            let variants: Vec<&LargeInput> = catalogue.iter().filter(|c| c.tier == tier).collect();
            variants[rng.below(variants.len())].clone()
        })
        .collect();
    rng.shuffle(&mut picks);
    picks
}
