"""Model descriptors for the LLMs evaluated in the paper.

The paper evaluates Llama-2 Chat models at 7B, 13B and 70B scale plus two
multimodal models (Qwen-VL-Chat and LLaVA-1.5).  The scheduler itself never
looks at model weights; all it needs from a model is

* how many bytes of KV cache one token occupies (which, together with the GPU
  memory budget, determines the token capacity of the KV-cache pool), and
* how much compute / memory traffic one prefill or decode step costs (consumed
  by :mod:`repro.engine.cost_model`).

Both are derivable from the architectural parameters below.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bytes per weight and per KV element: every served model runs in FP16.
DTYPE_BYTES = 2


@dataclass(frozen=True)
class ModelConfig:
    """Architectural description of a served LLM.

    Parameters mirror the HuggingFace config fields of the corresponding
    open-source checkpoints.  ``num_key_value_heads`` differs from
    ``num_attention_heads`` for models using grouped-query attention
    (Llama-2-70B).
    """

    name: str
    num_parameters: float
    num_layers: int
    hidden_size: int
    num_attention_heads: int
    num_key_value_heads: int
    intermediate_size: int
    vocab_size: int = 32000
    #: extra tokens prepended to every request (e.g. image patch tokens for
    #: multimodal models); 0 for text-only models.
    vision_prefix_tokens: int = 0
    #: wall-clock cost (seconds) of the vision encoder per request, if any.
    vision_encoder_seconds: float = 0.0

    @property
    def head_dim(self) -> int:
        """Dimension of a single attention head."""
        return self.hidden_size // self.num_attention_heads

    @property
    def kv_bytes_per_token(self) -> int:
        """Bytes of KV cache one token occupies across all layers.

        Per layer a token stores a key and a value vector of
        ``num_key_value_heads * head_dim`` elements each.
        """
        per_layer = 2 * self.num_key_value_heads * self.head_dim * DTYPE_BYTES
        return per_layer * self.num_layers

    @property
    def weight_bytes(self) -> int:
        """Approximate bytes occupied by the model weights."""
        return int(self.num_parameters * DTYPE_BYTES)

    @property
    def flops_per_token(self) -> float:
        """Approximate forward FLOPs for one token (2 * parameters)."""
        return 2.0 * self.num_parameters

    @property
    def is_multimodal(self) -> bool:
        """Whether requests carry an image prefix."""
        return self.vision_prefix_tokens > 0


def _llama2(name: str, params: float, layers: int, hidden: int, heads: int,
            kv_heads: int, inter: int) -> ModelConfig:
    return ModelConfig(
        name=name,
        num_parameters=params,
        num_layers=layers,
        hidden_size=hidden,
        num_attention_heads=heads,
        num_key_value_heads=kv_heads,
        intermediate_size=inter,
    )


LLAMA2_7B = _llama2("Llama-2-7B-Chat", 6.74e9, 32, 4096, 32, 32, 11008)
LLAMA2_13B = _llama2("Llama-2-13B-Chat", 13.0e9, 40, 5120, 40, 40, 13824)
LLAMA2_70B = _llama2("Llama-2-70B-Chat", 68.9e9, 80, 8192, 64, 8, 28672)

#: Qwen-VL-Chat: ~9.6B parameters, 256 image tokens after the visual adapter.
QWEN_VL_CHAT = ModelConfig(
    name="Qwen-VL-Chat",
    num_parameters=9.6e9,
    num_layers=32,
    hidden_size=4096,
    num_attention_heads=32,
    num_key_value_heads=32,
    intermediate_size=11008,
    vocab_size=151936,
    vision_prefix_tokens=256,
    vision_encoder_seconds=0.020,
)

#: LLaVA-1.5-7B: Llama-2-7B language tower + CLIP ViT-L/14-336 (576 patches).
LLAVA_15_7B = ModelConfig(
    name="LLaVA-1.5-7B",
    num_parameters=7.0e9,
    num_layers=32,
    hidden_size=4096,
    num_attention_heads=32,
    num_key_value_heads=32,
    intermediate_size=11008,
    vision_prefix_tokens=576,
    vision_encoder_seconds=0.015,
)

#: LLaVA-1.5-13B: Llama-2-13B language tower + the same vision tower.
LLAVA_15_13B = ModelConfig(
    name="LLaVA-1.5-13B",
    num_parameters=13.0e9,
    num_layers=40,
    hidden_size=5120,
    num_attention_heads=40,
    num_key_value_heads=40,
    intermediate_size=13824,
    vision_prefix_tokens=576,
    vision_encoder_seconds=0.015,
)

MODEL_REGISTRY: dict[str, ModelConfig] = {
    m.name: m
    for m in (LLAMA2_7B, LLAMA2_13B, LLAMA2_70B, QWEN_VL_CHAT, LLAVA_15_7B, LLAVA_15_13B)
}


def get_model(name: str) -> ModelConfig:
    """Look up a model by name.

    Raises:
        KeyError: if the model is unknown.
    """
    try:
        return MODEL_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise KeyError(f"unknown model {name!r}; known models: {known}") from None
