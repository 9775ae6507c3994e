(** The paper's learning algorithm: witness-path search for positive
    nodes, prefix-tree generalization by state merging under the
    "selects no negative node" oracle, plus the static-labeling
    consistency checker. *)

module Sample = Sample
module Subset = Subset
module Witness_search = Witness_search
module Rpni = Rpni
module Learner = Learner
module Static = Static
module Baseline = Baseline
module Convergence = Convergence
module Word_learner = Word_learner
module Repair = Repair
module Lstar = Lstar
