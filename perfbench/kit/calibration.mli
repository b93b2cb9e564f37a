(** Host-speed calibration.

    The benchmark host's speed drifts by 20-50% over seconds while CPU time
    stays equal to wall time: other tenants contend for the core and its
    caches.  A fixed reference kernel — branchy two-pointer merging and
    alias-table sampling, frozen here and independent of the program under
    test — is timed between requests; its per-pass time tracked the
    workloads' per-pass time with a correlation of 0.94-0.98.  Every
    reported time is scaled by [nominal_ns / local kernel time], i.e.
    expressed at the host speed where the kernel takes [nominal_ns]. *)

(** Runs the reference kernel twice and returns the second run's duration
    in ns on [clock]; the first, untimed, reloads the kernel's data into
    the caches. *)
val measure : (unit -> float) -> float

(** The kernel's time at the reference host speed, in ns. *)
val nominal_ns : float

(** [factors ~samples times] — for each time in the ascending array
    [times], the median kernel duration over the 5 calibration samples
    nearest to it (all of them when there are fewer), divided by
    {!nominal_ns}.  [samples] holds (time, kernel ns) pairs in ascending
    time order and must be non-empty. *)
val factors : samples:(float * float) array -> float array -> float array

(** [median_factor durations] — the median of kernel durations, divided
    by {!nominal_ns}. *)
val median_factor : float list -> float
