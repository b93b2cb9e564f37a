(** In-memory span recorder for the traced run.

    A span is one call into a layer: its name, start and stop on the
    recorder's clock, the span that caused it ([-1] for a root) and the
    request it belongs to.  Spans are kept in memory while the benchmark
    runs and written out once at the end. *)

type span = { name : string; start : float; stop : float; parent : int; req : int }
type t

(** [create clock] — a recorder timestamping with [clock] (ns). *)
val create : (unit -> float) -> t

(** [with_span t name ~parent ~req f] records a span around [f id], where
    [id] is the new span's identifier (the parent of spans [f] opens). *)
val with_span : t -> string -> parent:int -> req:int -> (int -> 'a) -> 'a

(** Spans recorded so far; a span's identifier is its index. *)
val spans : t -> span array

(** [covered spans] — per span, the length of its interval covered by the
    union of its children's intervals. *)
val covered : span array -> float array

(** [self_times spans] — per span, its duration minus {!covered}. *)
val self_times : span array -> float array

(** [totals spans] — per span name: (number of spans, total self time). *)
val totals : span array -> (string, int * float) Hashtbl.t

(** [coverage spans ~name] — over all spans called [name], the share of
    their summed duration covered by their children. *)
val coverage : span array -> name:string -> float

(** Tab-separated dump: id, name, start, stop, parent, request. *)
val write_tsv : out_channel -> span array -> unit
