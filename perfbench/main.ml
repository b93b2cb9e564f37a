(* The untraced run: end-to-end metrics through the top-level API only. *)
let () = Perfbench_kit.Harness.untraced ()
