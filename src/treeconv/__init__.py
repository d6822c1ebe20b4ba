"""Tree-based convolutional neural networks for sentence classification.

Two variants share one pipeline: per-node vectors feed a depth-2 subtree
convolution window slid over the whole parse tree, dynamic max pooling
compresses the variable topology into fixed slots, and a small
fully-connected head predicts the class.

* constituency variant: binarized phrase-structure trees whose non-leaf
  vectors come from a pretrained recursive autoencoder, frozen afterward
* dependency variant: one node per word, convolution weights indexed by
  dependency relation instead of child position
"""

from .config import TrainConfig, question_regime, sentiment_regime
from .corpus_io import (
    DepTypeInventory,
    EmbeddingTable,
    ParseTree,
    TreeNode,
    Vocabulary,
    bind_vocabulary,
    build_dep_inventory,
    load_embeddings,
    parse_constituency,
    parse_dependency,
    read_constituency_file,
    read_dependency_file,
)
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DivergenceError,
    FormatError,
    ParseError,
    ShapeError,
    StructureError,
    TreeConvError,
)
from .network import ModelParams, SentenceClassifier, init_model
from .tensor_core import Tape, Tensor
from .trainer import TrainReport, evaluate, gradient_check, train

__version__ = "0.1.0"
