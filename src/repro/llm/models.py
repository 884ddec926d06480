"""LLM configurations (paper Table I plus the Table II full-scale variant).

The paper evaluates *scaled-down* variants: hidden and FFN dimensions at 50%
of the corresponding full-size models, matched with a 50%-SM GPU, which
preserves the computation-to-communication ratio (validated in Table II).
The configs below are the Table I numbers verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from ..common.errors import ConfigError


@dataclass(frozen=True)
class ModelConfig:
    """One transformer model as evaluated in the paper."""

    name: str
    hidden: int
    ffn_hidden: int
    heads: int
    seq_len: int
    batch: int
    layers: int = 32
    dtype_bytes: int = 2                 # bf16 activations/weights

    def __post_init__(self) -> None:
        for field_name in ("hidden", "ffn_hidden", "heads", "seq_len",
                           "batch", "layers", "dtype_bytes"):
            if getattr(self, field_name) <= 0:
                raise ConfigError(f"{self.name}: {field_name} must be "
                                  f"positive")

    @property
    def tokens(self) -> int:
        """Row dimension M of the activation matrices (= seq * batch)."""
        return self.seq_len * self.batch

    def activation_bytes(self) -> int:
        """Size of one [tokens, hidden] activation tensor."""
        return self.tokens * self.hidden * self.dtype_bytes

    def scaled(self, tokens_fraction: float) -> "ModelConfig":
        """A copy with the token count scaled (simulation-budget knob).

        Scaling tokens preserves the computation-to-communication ratio of
        every per-layer operator (both are linear in M), so speedup *shapes*
        are unchanged while event counts drop proportionally.
        """
        if not 0 < tokens_fraction <= 1:
            raise ConfigError(
                f"tokens_fraction must be in (0, 1], got {tokens_fraction}")
        new_seq = max(128, int(self.seq_len * tokens_fraction))
        return replace(self, seq_len=new_seq)


MEGA_GPT_4B = ModelConfig(name="Mega-GPT-4B", hidden=2048, ffn_hidden=8192,
                          heads=24, seq_len=1024, batch=16, layers=32)
MEGA_GPT_8B = ModelConfig(name="Mega-GPT-8B", hidden=3072, ffn_hidden=12288,
                          heads=32, seq_len=1024, batch=12, layers=36)
LLAMA_7B = ModelConfig(name="LLaMA-7B", hidden=4096, ffn_hidden=11264,
                       heads=32, seq_len=3072, batch=3, layers=32)

#: The Table II validation pair: a full-size model on a full-scale GPU
#: versus its half configuration (LLaMA-7B above) on a half-scale GPU.
LLAMA_FULL = ModelConfig(name="LLaMA-full", hidden=8192, ffn_hidden=22528,
                         heads=64, seq_len=3072, batch=3, layers=32)

TABLE_I: Dict[str, ModelConfig] = {
    m.name: m for m in (MEGA_GPT_4B, MEGA_GPT_8B, LLAMA_7B)
}


def by_name(name: str) -> ModelConfig:
    """Look up a model by its Table I name."""
    if name in TABLE_I:
        return TABLE_I[name]
    if name == LLAMA_FULL.name:
        return LLAMA_FULL
    raise ConfigError(f"unknown model {name!r}; "
                      f"known: {sorted(TABLE_I) + [LLAMA_FULL.name]}")
