"""passforge: structure-aware pass ordering on a mini SSA IR.

Subpackages:
  ir        -- SSA IR, parser/printer, verifier, reference interpreter
  graphs    -- heterogeneous program graphs (instruction/block/function nodes)
  passes    -- transform pass catalog and sequence application
  qor       -- analytical latency/resource estimator
  hged      -- two-stage heterogeneous graph edit distance
  embedder  -- relational graph-conv embedding model, trained as a siamese
               regression of (1 - cos)/2 onto normalized HGED labels
  agent     -- PPO policy, pass-search environment, and search baselines
  corpus    -- synthetic kernel generator and the two case-study fixtures
  dataset   -- pass-sequence variant generation and pair labeling
"""

__version__ = "0.1.0"
