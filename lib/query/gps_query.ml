(** RPQ engine: compiled path queries, graph-linear evaluation via the
    product construction, witness walks, node path languages and
    hypothesis-quality metrics. *)

module Rpq = Rpq
module Eval = Eval
module Pathlang = Pathlang
module Witness = Witness
module Metrics = Metrics
module Binary = Binary
module Rewrite = Rewrite
module Incremental = Incremental
module Conjunctive = Conjunctive
