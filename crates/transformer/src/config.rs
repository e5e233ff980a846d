//! Model-family configurations matching the paper's evaluation setup.
//!
//! Section 5.1 of the paper fixes the attention head dimension at `d = 64`
//! for every workload except MemN2N (`d = 20`), and uses sequence lengths of
//! 50 (MemN2N/bAbI), 512 (BERT/GLUE), 384 (BERT & ALBERT/SQuAD), 1280
//! (GPT-2/WikiText-2), and 197 patches for ViT-Base on CIFAR-10 (224/16
//! patches plus the class token). Layer and head counts follow the public
//! model cards.

/// The transformer model families evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// End-to-end memory network evaluated on the 20 bAbI tasks.
    MemN2N,
    /// BERT-Base (12 layers, 12 heads).
    BertBase,
    /// BERT-Large (24 layers, 16 heads).
    BertLarge,
    /// ALBERT-XX-Large (12 repeated layers, 64 heads of dim 64).
    AlbertXxLarge,
    /// GPT-2-Large (36 layers, 20 heads), evaluated with perplexity.
    Gpt2Large,
    /// ViT-Base (12 layers, 12 heads) on CIFAR-10.
    VitBase,
}

impl ModelFamily {
    /// All families, in the order the paper's figures list them.
    pub const ALL: [ModelFamily; 6] = [
        ModelFamily::MemN2N,
        ModelFamily::BertBase,
        ModelFamily::BertLarge,
        ModelFamily::AlbertXxLarge,
        ModelFamily::Gpt2Large,
        ModelFamily::VitBase,
    ];

    /// Human-readable name used in harness output.
    pub fn name(&self) -> &'static str {
        match self {
            ModelFamily::MemN2N => "MemN2N",
            ModelFamily::BertBase => "BERT-B",
            ModelFamily::BertLarge => "BERT-L",
            ModelFamily::AlbertXxLarge => "ALBERT-XX-L",
            ModelFamily::Gpt2Large => "GPT-2-L",
            ModelFamily::VitBase => "ViT-B",
        }
    }
}

impl std::fmt::Display for ModelFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Architecture hyper-parameters of a transformer workload.
///
/// Two views coexist:
///
/// * **Full-scale** ([`ModelConfig::paper_scale`]) — the dimensions the paper
///   uses; these drive the accelerator simulator and the analytical
///   performance/energy models, where only shapes (not trained weights)
///   matter.
/// * **Trainable-scale** ([`ModelConfig::train_scale`]) — a reduced copy used
///   by the fine-tuning experiments so that threshold learning runs in
///   seconds on a CPU while exercising exactly the same code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Which family this configuration belongs to.
    pub family: ModelFamily,
    /// Number of attention (encoder) layers.
    pub layers: usize,
    /// Number of attention heads per layer.
    pub heads: usize,
    /// Head dimension `d` of the Q/K/V vectors (64 in the paper, 20 for MemN2N).
    pub head_dim: usize,
    /// Model (embedding) dimension `d_w = heads * head_dim`.
    pub model_dim: usize,
    /// Hidden dimension of the position-wise feed-forward block.
    pub ffn_dim: usize,
    /// Sequence length `s` (number of tokens / patches).
    pub seq_len: usize,
}

impl ModelConfig {
    /// Full-scale configuration with the paper's dimensions.
    pub fn paper_scale(family: ModelFamily) -> Self {
        match family {
            ModelFamily::MemN2N => Self {
                family,
                layers: 3,
                heads: 1,
                head_dim: 20,
                model_dim: 20,
                ffn_dim: 80,
                seq_len: 50,
            },
            ModelFamily::BertBase => Self {
                family,
                layers: 12,
                heads: 12,
                head_dim: 64,
                model_dim: 768,
                ffn_dim: 3072,
                seq_len: 512,
            },
            ModelFamily::BertLarge => Self {
                family,
                layers: 24,
                heads: 16,
                head_dim: 64,
                model_dim: 1024,
                ffn_dim: 4096,
                seq_len: 512,
            },
            ModelFamily::AlbertXxLarge => Self {
                family,
                layers: 12,
                heads: 64,
                head_dim: 64,
                model_dim: 4096,
                ffn_dim: 16384,
                seq_len: 384,
            },
            ModelFamily::Gpt2Large => Self {
                family,
                layers: 36,
                heads: 20,
                head_dim: 64,
                model_dim: 1280,
                ffn_dim: 5120,
                seq_len: 1280,
            },
            ModelFamily::VitBase => Self {
                family,
                layers: 12,
                heads: 12,
                head_dim: 64,
                model_dim: 768,
                ffn_dim: 3072,
                seq_len: 197,
            },
        }
    }

    /// Sequence length the paper uses for the SQuAD variant of the BERT
    /// models (384 instead of 512). Returns `self` unchanged for families
    /// without a SQuAD evaluation.
    pub fn with_squad_seq_len(mut self) -> Self {
        if matches!(
            self.family,
            ModelFamily::BertBase | ModelFamily::BertLarge | ModelFamily::AlbertXxLarge
        ) {
            self.seq_len = 384;
        }
        self
    }

    /// Reduced configuration used by the CPU fine-tuning experiments. The
    /// layer/head structure is preserved (so there is one learned threshold
    /// per layer, as in the paper) but widths and sequence length are shrunk.
    pub fn train_scale(family: ModelFamily) -> Self {
        let paper = Self::paper_scale(family);
        let layers = paper.layers.clamp(2, 4);
        let heads = paper.heads.min(2);
        let head_dim = 16;
        let model_dim = heads * head_dim;
        Self {
            family,
            layers,
            heads,
            head_dim,
            model_dim,
            ffn_dim: model_dim * 2,
            seq_len: paper.seq_len.min(24),
        }
    }

    /// Validates internal consistency (e.g. `model_dim == heads * head_dim`).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.layers == 0 || self.heads == 0 || self.head_dim == 0 || self.seq_len == 0 {
            return Err("layers, heads, head_dim, and seq_len must be positive".to_string());
        }
        if self.model_dim != self.heads * self.head_dim {
            return Err(format!(
                "model_dim {} must equal heads * head_dim = {}",
                self.model_dim,
                self.heads * self.head_dim
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_reported_dimensions() {
        let bert_b = ModelConfig::paper_scale(ModelFamily::BertBase);
        assert_eq!(bert_b.layers, 12);
        assert_eq!(bert_b.head_dim, 64);
        assert_eq!(bert_b.seq_len, 512);

        let bert_l = ModelConfig::paper_scale(ModelFamily::BertLarge);
        assert_eq!(bert_l.layers, 24);

        let memn2n = ModelConfig::paper_scale(ModelFamily::MemN2N);
        assert_eq!(memn2n.head_dim, 20);
        assert_eq!(memn2n.seq_len, 50);

        let gpt2 = ModelConfig::paper_scale(ModelFamily::Gpt2Large);
        assert_eq!(gpt2.seq_len, 1280);
    }

    #[test]
    fn squad_variant_shrinks_sequence() {
        let cfg = ModelConfig::paper_scale(ModelFamily::BertBase).with_squad_seq_len();
        assert_eq!(cfg.seq_len, 384);
        let vit = ModelConfig::paper_scale(ModelFamily::VitBase).with_squad_seq_len();
        assert_eq!(vit.seq_len, 197);
    }

    #[test]
    fn all_paper_configs_validate() {
        for family in ModelFamily::ALL {
            let cfg = ModelConfig::paper_scale(family);
            // ALBERT's published model_dim (4096) happens to equal 64*64, so
            // every family satisfies the head consistency constraint.
            assert_eq!(cfg.validate(), Ok(()), "{family} config invalid");
        }
    }

    #[test]
    fn train_scale_preserves_layer_structure_but_shrinks() {
        for family in ModelFamily::ALL {
            let cfg = ModelConfig::train_scale(family);
            assert!(cfg.layers >= 2 && cfg.layers <= 4);
            assert!(cfg.seq_len <= 24);
            assert_eq!(cfg.validate(), Ok(()));
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = ModelConfig::paper_scale(ModelFamily::BertBase);
        cfg.model_dim = 100;
        assert!(cfg.validate().is_err());
        cfg.model_dim = 768;
        cfg.layers = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn family_names_are_stable() {
        assert_eq!(ModelFamily::BertBase.to_string(), "BERT-B");
        assert_eq!(ModelFamily::ALL.len(), 6);
    }
}
