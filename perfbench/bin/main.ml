(* perfbench: the end-to-end benchmark of the scilife toolchain.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR]

   Untraced (--trace 0) runs one workload for S seconds of operation
   time and prints its end-to-end metrics; traced (--trace 1) replays
   every workload's inputs with a span around each layer call and
   prints the per-layer metrics.  The last stdout line is one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  The exit
   code is non-zero when a correctness check failed. *)

let () = Perfbench.Cli.main Sys.argv
