(* The host and run record printed with every result, so a number
   taken on one host is never compared with another host's unnoticed. *)

module J = Serve.Json

let nproc () = Domain.recommended_domain_count ()

(* pool domains: all cores, never more than [nproc] *)
let pool_domains () = max 1 (nproc ())

(* peak resident set size of this process, in MB (VmHWM); falls back
   to the OCaml heap's peak where /proc is unavailable *)
let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec loop () =
            match In_channel.input_line ic with
            | None -> None
            | Some line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                    (fun kb -> Some (float_of_int kb /. 1024.))
                else loop ()
          in
          loop ())
    with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.

let record ~workload ~seed ~domains ~sizes =
  J.Obj
    ([
       ("workload", J.Str workload);
       ("seed", J.Num (float_of_int seed));
       ("nproc", J.Num (float_of_int (nproc ())));
       ("ocaml", J.Str Sys.ocaml_version);
       ("pool_domains", J.Num (float_of_int domains));
     ]
    @ sizes)
