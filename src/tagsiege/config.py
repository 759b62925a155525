"""Every layer's settings: one dataclass per layer, checked on construction.

Each field carries its default and its command-line help (`option`), and
`cli` reads each option's kind (the annotation, a string here, less any
" | None"), default and help off that field, so a setting has one home. This
module imports only `dataclasses` and `errors`, so `--help` needs no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigurationError

MAX_VOCAB = 2000  # vocabulary size cap
DEFAULT_K = 5  # influencer candidates retrieved per target, offered to each topology query
VICTIM_KINDS = ("gcn", "sgc", "sage_mean")  # the victim models `evaluate` trains


def option(default, help: str):
    """A field defaulting to `default`, with `help` as its command-line help."""
    return field(default=default, metadata={"help": help})


@dataclass(frozen=True)
class SynthConfig:
    node_count: int = option(300, "number of nodes")
    class_count: int = option(4, "number of classes")
    p_in: float = option(0.05, "intra-class edge probability")
    p_out: float = option(0.005, "inter-class edge probability")
    tokens_per_text: int = option(6, "tokens drawn per node text")
    class_vocab_size: int = option(8, "terms per class vocabulary")
    shared_vocab_size: int = option(12, "terms shared across classes")
    noise_rate: float = option(0.05, "probability of a one-off noise token")
    seed: int = option(0, "generation seed")
    train_frac: float = option(0.6, "train split fraction")
    val_frac: float = option(0.2, "validation split fraction")  # the rest is test

    def __post_init__(self):
        if self.node_count < 2 or self.class_count < 1:
            raise ConfigurationError("need at least 2 nodes and 1 class")
        if self.node_count < self.class_count:
            raise ConfigurationError("fewer nodes than classes")
        for name in ("p_in", "p_out", "noise_rate"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name}={p} outside [0, 1]")
        if self.p_in <= self.p_out:
            raise ConfigurationError(
                f"p_in ({self.p_in}) must exceed p_out ({self.p_out})"
            )
        if self.tokens_per_text < 1:
            raise ConfigurationError("tokens_per_text must be >= 1")
        if self.class_vocab_size < 1:
            raise ConfigurationError("class_vocab_size must be >= 1")
        if self.train_frac < 0 or self.val_frac < 0:
            raise ConfigurationError("train_frac and val_frac must be non-negative")
        if self.train_frac + self.val_frac > 1.0 + 1e-9:
            raise ConfigurationError("train_frac + val_frac must be at most 1")


@dataclass
class EncoderConfig:
    hidden: int = option(64, "hidden layer width")
    learning_rate: float = option(0.01, "Adam learning rate")
    epochs: int = option(200, "training epochs")
    weight_decay: float = option(5e-4, "L2 weight decay")
    seed: int = option(0, "run seed (encoder, sampling, prompts)")

    def __post_init__(self):
        if self.hidden < 1:
            raise ConfigurationError("hidden width must be >= 1")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning rate must be positive")
        if self.weight_decay < 0:
            raise ConfigurationError("weight decay must be >= 0")


@dataclass
class VictimConfig(EncoderConfig):
    seed: int = option(0, "victim training seed")
    sgc_steps: int = option(2, "SGC propagation steps")

    def __post_init__(self):
        super().__post_init__()
        if self.sgc_steps < 1:
            raise ConfigurationError("sgc_steps must be >= 1")


@dataclass
class LLMConfig:
    model: str = option("gpt-4o-mini", "chat model name (llm backend)")
    base_url: str | None = option(None, "API base URL (llm backend)")
    temperature: float = option(0.0, "sampling temperature (llm backend)")
    timeout: float = option(60.0, "request timeout seconds (llm backend)")
    max_attempts: int = option(3, "transport attempts per query (llm backend)")

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if not self.timeout > 0:
            raise ConfigurationError("timeout must be > 0 seconds")
