(** The differential-file recovery architecture (Section 3.3).

    Each relation [R] is a view [R = (B u A) - D]: a read-only base file
    [B], an append-only additions file [A] and an append-only deletions
    file [D].  Processing a base page therefore costs extra disk reads
    (the referenced A and D pages, a [size_fraction] of the base pages
    read) and extra query-processor work (the set-union/set-difference).

    With the {e basic} strategy every B (and A) page incurs the full
    set-difference against the referenced D pages.  With the {e optimal}
    strategy the set-difference is taken only for pages whose initial
    scan yields at least one qualifying tuple, modelled by
    [qualify_prob].

    Updates append tuples instead of rewriting pages: on average only
    [output_fraction] of an output page is produced per updated page, so
    a transaction writes roughly [output_fraction * writes] pages
    (rounded up per transaction — the fragmentation effect of
    Table 10). *)

type strategy = Basic | Optimal

type config = {
  size_fraction : float;  (** size of A and D relative to B (0.10) *)
  output_fraction : float;  (** of an output page produced per update *)
  strategy : strategy;
  qualify_prob : float;
      (** probability that a page yields a qualifying tuple and pays the
          set-difference under the optimal strategy, at the reference
          differential size of 10 %; it scales as [(size/0.10)^0.8].
          Both the 0.3 default and the 0.8 exponent are calibrated to
          the paper's Tables 9 and 11, not derived: in a real
          [(B u A) - D] select the qualifying share is set by the
          predicate's selectivity and stays flat as A and D grow
          (EXPERIMENTS.md, substitutions) *)
  setdiff_cpu_ms : float;
      (** query-processor cost of set-differencing one data page
          against one differential page *)
}

val default : config
(** 10 % differential files, 10 % output fraction, optimal strategy,
    qualify probability 0.3, 54 ms per page pair (tuple-wise
    set-difference of two ~100-tuple pages on a VAX-11/750-class
    processor). *)

val basic : config

val descriptor : config -> string
(** Canonical architecture descriptor (["diff-file:<hex>"]) for
    content-addressed run caching; equal configs yield equal
    descriptors regardless of the requesting call site. *)

val make : config -> Dbm_machine.Arch.ctx -> Dbm_machine.Arch.t
(** Extra statistics: ["diff_pages_read"], ["output_pages_written"],
    ["setdiff_ops"]. *)
