(** Reusable preparation workspace, owned by an {!Lca_kp.t} and surviving
    across [prepare] calls (all [with_access] views share one arena, like
    the run-state memo).

    Four lanes:
    - a {e tie-salt memo}: [Lk_repro.Domain.salt] is a pure function of
      (seed, index) but costs a derivation-path hash per call; the memo
      caches it per item index ([-1] = unfilled).  Shared by Ĩ-construction
      and the answer path.  Concurrent answer batches may race on a slot,
      but every writer stores the same value, so the race is benign and
      outputs stay deterministic;
    - a {e code buffer} for the efficiency codes of the EPS sample;
    - a {e sort scratch} handed to the rQuantile bootstrap;
    - a fixed-size {e draw block} the weighted-sample draws of R̄ and Q̄ are
      made into ({!Lk_oracle.Access.sample_each}).

    Contents of the latter three are clobbered by every build; none of the
    lanes ever shrinks, and the draw block never grows.  Results are
    bit-identical with or without a recycled arena.

    An arena that prepares belongs to one domain: the code, sort and block
    lanes are written by every build, so two builds must never run on one
    arena at the same time.  Only the salt memo may be shared by concurrent
    answers (see above). *)

type t

val create : unit -> t

(** [salts t n] — the salt memo, grown to length >= [n]; existing entries
    are preserved, new slots are [-1]. *)
val salts : t -> int -> int array

(** [codes t n] — the code buffer, grown to length >= [n]; contents
    unspecified. *)
val codes : t -> int -> int array

(** [sort_scratch t n] — the bootstrap sort buffer, grown to length >=
    [n]; contents unspecified. *)
val sort_scratch : t -> int -> int array

(** [block t] — the draw block: a fixed, small number of ints (independent
    of the instance size); contents unspecified. *)
val block : t -> int array
