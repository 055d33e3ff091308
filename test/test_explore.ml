open Helpers
module Pool = Explore.Pool
module Cache = Explore.Cache
module Key = Explore.Key
module Pareto = Explore.Pareto
module Grid = Explore.Grid
module Alg = Aaa.Algorithm
module Arch = Aaa.Architecture
module Dur = Aaa.Durations
module Explorer = Lifecycle.Explorer

(* ------------------------------------------------------------------ *)
(* pool: deterministic parallel mapping *)

(* shared pools, one per domain count the properties quantify over —
   spawned once so the QCheck loops do not fork domains per iteration *)
let pools = Array.init 4 (fun i -> Pool.create ~domains:(i + 1) ())

exception Boom of int

let pool_tests =
  [
    test "map equals List.map whatever the domain count" (fun () ->
        let xs = List.init 100 (fun i -> i) in
        let f x = (x * x) + 3 in
        Array.iter
          (fun pool ->
            Alcotest.(check (list int))
              (Printf.sprintf "%d domain(s)" (Pool.domains pool))
              (List.map f xs) (Pool.map pool f xs))
          pools);
    qtest ~count:100 "map is List.map for every domain count and chunking"
      QCheck2.Gen.(
        triple (list_size (0 -- 40) (int_bound 1000)) (1 -- 4) (1 -- 7))
      (fun (xs, domains, chunk) ->
        let f x = (x * 7) - 1 in
        Pool.map ~chunk pools.(domains - 1) f xs = List.map f xs);
    test "the exception of the smallest failing index is re-raised" (fun () ->
        let xs = List.init 20 (fun i -> i) in
        match
          Pool.map ~chunk:2 pools.(3) (fun i -> if i >= 7 then raise (Boom i) else i) xs
        with
        | exception Boom i -> check_int "smallest index" 7 i
        | _ -> Alcotest.fail "expected Boom");
    test "a slow early failure beats a fast later one and leaves the pool usable"
      (fun () ->
        (* the failing index [first] fails last in wall-clock time and
           index 3 first: the in-order fold must still raise [first]'s
           exception, and the participants of the aborted job must not
           disturb the next job.  In the second case a slow index 0
           keeps the submitting domain busy, so that a worker takes
           index 1 and the submitter meets index 3's failure first. *)
        let spin n =
          let r = ref 0 in
          for k = 1 to n do
            r := Sys.opaque_identity (!r + k)
          done
        in
        let cases =
          [
            ( 0,
              fun i ->
                if i = 0 then begin
                  spin 2_000_000;
                  raise (Boom 0)
                end
                else if i = 3 then raise (Boom 3)
                else i );
            ( 1,
              fun i ->
                if i = 0 then spin 1_000_000
                else if i = 1 then begin
                  spin 3_000_000;
                  raise (Boom 1)
                end
                else if i = 3 then raise (Boom 3);
                i );
          ]
        in
        let xs = List.init 12 Fun.id in
        let ys = List.init 200 Fun.id in
        let g y = (y * 31) + 7 in
        List.iter
          (fun (first, f) ->
            Array.iter
              (fun pool ->
                let label = Printf.sprintf "%d domains" (Pool.domains pool) in
                (match Pool.map ~chunk:1 pool f xs with
                | exception Boom i -> check_int (label ^ ": map") first i
                | _ -> Alcotest.fail "expected Boom");
                Alcotest.(check (list int))
                  (label ^ ": map after abort") (List.map g ys) (Pool.map pool g ys);
                (match
                   Pool.map_reduce_seq ~chunk:1 pool ~map:f ~reduce:( + ) ~init:0
                     (List.to_seq xs)
                 with
                | exception Boom i -> check_int (label ^ ": map_reduce_seq") first i
                | _ -> Alcotest.fail "expected Boom");
                Alcotest.(check (list int))
                  (label ^ ": map after stream abort") (List.map g ys)
                  (Pool.map ~chunk:3 pool g ys))
              [| pools.(1); pools.(2); pools.(3) |])
          cases);
    test "reentrant maps fall back to sequential instead of deadlocking" (fun () ->
        let pool = pools.(1) in
        let nested x = List.fold_left ( + ) 0 (Pool.map pool (fun y -> y * 2) [ x; x + 1 ]) in
        Alcotest.(check (list int))
          "nested" (List.map nested [ 1; 2; 3 ])
          (Pool.map pool nested [ 1; 2; 3 ]));
    test "create rejects a non-positive domain count" (fun () ->
        check_raises_invalid "domains:0" (fun () -> ignore (Pool.create ~domains:0 ())));
    test "with_pool returns the result and shutdown is idempotent" (fun () ->
        check_int "result" 42 (Pool.with_pool ~domains:2 (fun _ -> 42));
        let p = Pool.create ~domains:2 () in
        Pool.shutdown p;
        Pool.shutdown p);
    qtest ~count:50 "irregular per-element costs do not disturb determinism"
      QCheck2.Gen.(
        triple (list_size (0 -- 60) (int_bound 500)) (1 -- 4) (1 -- 5))
      (fun (xs, domains, chunk) ->
        (* per-element work varies by orders of magnitude, so chunks
           finish far apart and out of order, and the in-order fold
           has to wait for slow chunks taken by other domains *)
        let f x =
          let spin = x mod 7 * 400 in
          let r = ref 0 in
          for i = 1 to spin do
            r := (!r + i) land 0xffff
          done;
          (x * 13) + !r
        in
        Pool.map ~chunk pools.(domains - 1) f xs = List.map f xs);
  ]

(* ------------------------------------------------------------------ *)
(* pool: streamed map-reduce *)

let stream_tests =
  [
    qtest ~count:80
      "map_reduce_seq equals the sequential fold for every domain count and \
       chunking"
      QCheck2.Gen.(
        triple (list_size (0 -- 60) (int_bound 1000)) (1 -- 4) (1 -- 5))
      (fun (xs, domains, chunk) ->
        (* string concat is not commutative nor associative-with-init:
           any reordering or re-chunking of the fold would show *)
        let fm x = string_of_int (x * 3) in
        let reduce acc s = acc ^ "|" ^ s in
        Pool.map_reduce_seq ~chunk pools.(domains - 1) ~map:fm ~reduce ~init:""
          (List.to_seq xs)
        = List.fold_left reduce "" (List.map fm xs));
    test "snapshot cadence and contents are pool-invariant" (fun () ->
        let xs = List.init 23 string_of_int in
        let observe pool =
          let seen = ref [] in
          let acc =
            Pool.map_reduce_seq ~chunk:2 ~snapshot_every:5
              ~snapshot:(fun ~evaluated acc -> seen := (evaluated, acc) :: !seen)
              pool
              ~map:(fun s -> s)
              ~reduce:(fun acc s -> acc ^ s)
              ~init:"" (List.to_seq xs)
          in
          (acc, List.rev !seen)
        in
        let seq = observe pools.(0) and par = observe pools.(2) in
        check_true "same final accumulator" (fst seq = fst par);
        check_true "same snapshots" (snd seq = snd par);
        check_int "four snapshots over 23 elements" 4 (List.length (snd seq));
        check_true "snapshot counts are the cadence"
          (List.map fst (snd seq) = [ 5; 10; 15; 20 ]));
    test "the first raising element in input order wins on the stream path"
      (fun () ->
        let xs = List.init 30 (fun i -> i) in
        Array.iter
          (fun pool ->
            match
              Pool.map_reduce_seq ~chunk:2 pool
                ~map:(fun i -> if i >= 7 then raise (Boom i) else i)
                ~reduce:( + ) ~init:0 (List.to_seq xs)
            with
            | exception Boom i -> check_int "smallest index" 7 i
            | _ -> Alcotest.fail "expected Boom")
          pools);
    test "a 100k-element stream reduces correctly without materialization"
      (fun () ->
        let n = 100_000 in
        let expected = n * (n - 1) / 2 in
        Array.iter
          (fun pool ->
            check_int
              (Printf.sprintf "%d domain(s)" (Pool.domains pool))
              expected
              (Pool.map_reduce_seq ~chunk:64 pool
                 ~map:(fun i -> i)
                 ~reduce:( + ) ~init:0
                 (Seq.take n (Seq.ints 0))))
          [| pools.(0); pools.(1) |]);
    test "an empty sequence yields the init" (fun () ->
        check_int "init" 17
          (Pool.map_reduce_seq pools.(2) ~map:(fun x -> x) ~reduce:( + ) ~init:17
             Seq.empty));
    test "a raising producer is re-raised after the yielded prefix" (fun () ->
        let bad =
          Seq.append (List.to_seq [ 1; 2; 3 ]) (fun () -> raise (Boom 99))
        in
        Array.iter
          (fun pool ->
            let reduced = ref 0 in
            (match
               Pool.map_reduce_seq ~chunk:1 pool
                 ~map:(fun x -> x)
                 ~reduce:(fun acc x ->
                   reduced := !reduced + 1;
                   acc + x)
                 ~init:0 bad
             with
            | exception Boom 99 -> ()
            | exception e -> raise e
            | _ -> Alcotest.fail "expected Boom 99");
            check_int "whole prefix reduced first" 3 !reduced)
          [| pools.(0); pools.(3) |]);
    test "map_reduce_seq validates chunk and snapshot_every" (fun () ->
        check_raises_invalid "chunk:0" (fun () ->
            ignore
              (Pool.map_reduce_seq ~chunk:0 pools.(1) ~map:Fun.id ~reduce:( + )
                 ~init:0 Seq.empty));
        check_raises_invalid "snapshot_every:0" (fun () ->
            ignore
              (Pool.map_reduce_seq ~snapshot_every:0 pools.(1) ~map:Fun.id
                 ~reduce:( + ) ~init:0 Seq.empty)));
  ]

(* ------------------------------------------------------------------ *)
(* cache: memoization and counters *)

let cache_tests =
  [
    test "a miss computes, a hit replays the stored value" (fun () ->
        let c = Cache.create () in
        let v1 = Cache.find_or_add c ~key:"k" (fun () -> ref 1) in
        let v2 = Cache.find_or_add c ~key:"k" (fun () -> ref 2) in
        check_true "physically the stored value" (v1 == v2);
        check_int "contents" 1 !v2;
        let s = Cache.stats c in
        check_int "hits" 1 s.Cache.hits;
        check_int "misses" 1 s.Cache.misses;
        check_int "size" 1 s.Cache.size);
    test "find_opt counts lookups" (fun () ->
        let c = Cache.create () in
        check_true "absent" (Cache.find_opt c ~key:"a" = None);
        Cache.add c ~key:"a" 7;
        check_true "present" (Cache.find_opt c ~key:"a" = Some 7);
        let s = Cache.stats c in
        check_int "one miss" 1 s.Cache.misses;
        check_int "one hit" 1 s.Cache.hits);
    test "eviction is FIFO once capacity is exceeded" (fun () ->
        let c = Cache.create ~capacity:2 () in
        List.iter (fun k -> ignore (Cache.find_or_add c ~key:k (fun () -> k))) [ "a"; "b"; "c" ];
        let s = Cache.stats c in
        check_int "evictions" 1 s.Cache.evictions;
        check_int "live entries" 2 s.Cache.size;
        check_true "oldest gone" (Cache.find_opt c ~key:"a" = None);
        check_true "newest kept" (Cache.find_opt c ~key:"c" = Some "c"));
    test "a raising computation caches nothing" (fun () ->
        let c = Cache.create () in
        (match Cache.find_or_add c ~key:"k" (fun () -> failwith "boom") with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected Failure");
        check_int "empty" 0 (Cache.stats c).Cache.size;
        check_int "recomputed" 5 (Cache.find_or_add c ~key:"k" (fun () -> 5)));
    test "hit_rate is nan before the first lookup, then hits over lookups" (fun () ->
        let c = Cache.create () in
        check_true "nan" (Float.is_nan (Cache.hit_rate (Cache.stats c)));
        ignore (Cache.find_or_add c ~key:"k" (fun () -> ()));
        ignore (Cache.find_or_add c ~key:"k" (fun () -> ()));
        check_float "0.5" 0.5 (Cache.hit_rate (Cache.stats c)));
    test "reset drops entries and zeroes counters" (fun () ->
        let c = Cache.create () in
        ignore (Cache.find_or_add c ~key:"k" (fun () -> 1));
        Cache.reset c;
        let s = Cache.stats c in
        check_int "size" 0 s.Cache.size;
        check_int "hits" 0 s.Cache.hits;
        check_int "misses" 0 s.Cache.misses);
    test "pp_stats renders the counters" (fun () ->
        let c = Cache.create () in
        ignore (Cache.find_or_add c ~key:"k" (fun () -> 1));
        ignore (Cache.find_or_add c ~key:"k" (fun () -> 1));
        let s = Format.asprintf "%a" Cache.pp_stats (Cache.stats c) in
        check_true "hits shown" (contains s "1 hits / 1 misses");
        check_true "rate shown" (contains s "50.0 % hit rate"));
    test "create rejects a non-positive capacity" (fun () ->
        check_raises_invalid "capacity:0" (fun () -> ignore (Cache.create ~capacity:0 ())));
  ]

(* ------------------------------------------------------------------ *)
(* cache persistence: the append-only backing log *)

let with_log f =
  let path = Filename.temp_file "scilife_cache" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let open_str ?(capacity = 16) path =
  let c = Cache.create ~capacity () in
  let n = Cache.open_backing c ~path ~encode:Fun.id ~decode:Fun.id in
  (c, n)

let persist_tests =
  [
    test "entries written before close survive a reload" (fun () ->
        with_log (fun path ->
            let c, loaded = open_str path in
            check_int "fresh log" 0 loaded;
            Cache.add c ~key:"a" "1";
            Cache.add c ~key:"b" "value with\nnewlines and \x00 bytes";
            Cache.close c;
            let c2, loaded = open_str path in
            check_int "replayed" 2 loaded;
            check_true "a" (Cache.find_opt c2 ~key:"a" = Some "1");
            check_true "binary-safe"
              (Cache.find_opt c2 ~key:"b" = Some "value with\nnewlines and \x00 bytes");
            Cache.close c2));
    test "a replaced key reloads with its latest value" (fun () ->
        with_log (fun path ->
            let c, _ = open_str path in
            Cache.add c ~key:"k" "old";
            Cache.add c ~key:"k" "new";
            Cache.close c;
            let c2, _ = open_str path in
            check_true "latest wins" (Cache.find_opt c2 ~key:"k" = Some "new");
            check_int "one live entry" 1 (Cache.stats c2).Cache.size;
            Cache.close c2));
    test "replay honours FIFO eviction, converging to the live window" (fun () ->
        with_log (fun path ->
            let c, _ = open_str ~capacity:2 path in
            List.iter (fun k -> Cache.add c ~key:k k) [ "a"; "b"; "c" ];
            Cache.close c;
            let c2, _ = open_str ~capacity:2 path in
            check_true "oldest gone" (Cache.find_opt c2 ~key:"a" = None);
            check_true "window kept"
              (Cache.find_opt c2 ~key:"b" = Some "b"
              && Cache.find_opt c2 ~key:"c" = Some "c");
            Cache.close c2));
    test "a truncated tail record is dropped, earlier records kept" (fun () ->
        with_log (fun path ->
            let c, _ = open_str path in
            Cache.add c ~key:"good" "kept";
            Cache.add c ~key:"casualty" "of the crash";
            Cache.close c;
            (* chop mid-record, as a crash would *)
            let full = In_channel.with_open_bin path In_channel.input_all in
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc
                  (String.sub full 0 (String.length full - 7)));
            let c2, loaded = open_str path in
            check_int "one survivor" 1 loaded;
            check_true "kept" (Cache.find_opt c2 ~key:"good" = Some "kept");
            check_true "dropped" (Cache.find_opt c2 ~key:"casualty" = None);
            (* the next write after a truncated reload still round-trips *)
            Cache.add c2 ~key:"after" "crash";
            Cache.close c2;
            let c3, _ = open_str path in
            check_true "appended post-crash" (Cache.find_opt c3 ~key:"after" = Some "crash");
            Cache.close c3));
    test "open_backing refuses a non-empty or already-backed cache" (fun () ->
        with_log (fun path ->
            let dirty = Cache.create () in
            Cache.add dirty ~key:"k" "v";
            check_raises_invalid "non-empty" (fun () ->
                ignore (Cache.open_backing dirty ~path ~encode:Fun.id ~decode:Fun.id));
            let c, _ = open_str path in
            check_raises_invalid "double open" (fun () ->
                ignore (Cache.open_backing c ~path ~encode:Fun.id ~decode:Fun.id));
            Cache.close c));
    test "close is idempotent and the cache stays usable in memory" (fun () ->
        with_log (fun path ->
            let c, _ = open_str path in
            Cache.add c ~key:"a" "1";
            Cache.close c;
            Cache.close c;
            Cache.add c ~key:"b" "2";
            check_true "in-memory add works" (Cache.find_opt c ~key:"b" = Some "2");
            let c2, loaded = open_str path in
            check_int "post-close add not persisted" 1 loaded;
            Cache.close c2));
    test "reset truncates the log" (fun () ->
        with_log (fun path ->
            let c, _ = open_str path in
            Cache.add c ~key:"a" "1";
            Cache.reset c;
            Cache.add c ~key:"b" "2";
            Cache.close c;
            let c2, loaded = open_str path in
            check_int "only post-reset entries" 1 loaded;
            check_true "reset entry gone" (Cache.find_opt c2 ~key:"a" = None);
            check_true "kept" (Cache.find_opt c2 ~key:"b" = Some "2");
            Cache.close c2));
    test "flush makes entries durable without closing" (fun () ->
        with_log (fun path ->
            let c, _ = open_str path in
            Cache.add c ~key:"a" "1";
            Cache.flush c;
            (* read the file while the writer still has it open *)
            let c2, loaded = open_str ~capacity:16 path in
            check_int "visible after flush" 1 loaded;
            Cache.close c2;
            Cache.close c));
    test "concurrent writers lose no appends" (fun () ->
        with_log (fun path ->
            let c, _ = open_str ~capacity:512 path in
            let keys = List.init 200 (fun i -> Printf.sprintf "k%03d" i) in
            ignore (Pool.map pools.(3) (fun k -> Cache.add c ~key:k k) keys);
            Cache.close c;
            let c2, loaded = open_str ~capacity:512 path in
            check_int "all 200 records" 200 loaded;
            List.iter
              (fun k -> check_true k (Cache.find_opt c2 ~key:k = Some k))
              keys;
            Cache.close c2));
    test "compact rewrites only the live entries and a reload agrees" (fun () ->
        with_log (fun path ->
            let c, _ = open_str ~capacity:4 path in
            (* bloat the log: replacements and evictions leave dead records *)
            List.iter (fun k -> Cache.add c ~key:k k) [ "a"; "b"; "c"; "d" ];
            List.iter (fun k -> Cache.add c ~key:k (k ^ "2")) [ "a"; "b"; "c"; "d" ];
            List.iter (fun k -> Cache.add c ~key:k k) [ "e"; "f" ];
            Cache.flush c;
            let before = (Unix.stat path).Unix.st_size in
            let written = Cache.compact c in
            check_int "one record per live entry" (Cache.stats c).Cache.size written;
            let after = (Unix.stat path).Unix.st_size in
            check_true "log shrank" (after < before);
            Cache.close c;
            let c2, loaded = open_str ~capacity:4 path in
            check_int "reload sees exactly the live set" written loaded;
            check_true "evicted entries stayed gone"
              (Cache.find_opt c2 ~key:"a" = None && Cache.find_opt c2 ~key:"b" = None);
            check_true "window kept, latest values"
              (Cache.find_opt c2 ~key:"c" = Some "c2"
              && Cache.find_opt c2 ~key:"d" = Some "d2"
              && Cache.find_opt c2 ~key:"e" = Some "e"
              && Cache.find_opt c2 ~key:"f" = Some "f");
            (* appends after a compaction still round-trip *)
            Cache.add c2 ~key:"g" "after";
            Cache.close c2;
            let c3, _ = open_str ~capacity:8 path in
            check_true "post-compaction append survives"
              (Cache.find_opt c3 ~key:"g" = Some "after");
            Cache.close c3));
    test "the threshold triggers compaction on its own" (fun () ->
        with_log (fun path ->
            let c = Cache.create ~capacity:2 () in
            ignore
              (Cache.open_backing ~compact_threshold:64 c ~path ~encode:Fun.id
                 ~decode:Fun.id);
            (* with a 2-entry window every insertion past the threshold
               evicts, so the log would grow without bound uncompacted *)
            for i = 1 to 200 do
              Cache.add c ~key:(Printf.sprintf "k%03d" i) (String.make 8 'x')
            done;
            Cache.flush c;
            let size = (Unix.stat path).Unix.st_size in
            check_true "log stays near the live window, not 200 records"
              (size < 1024);
            Cache.close c;
            let c2, loaded = open_str ~capacity:2 path in
            (* the log holds the last rewrite's live records plus the
               few appends since — far from the 200 inserted *)
            check_true "replay stays near the live window" (loaded < 20);
            check_int "table converges to the window" 2 (Cache.stats c2).Cache.size;
            check_true "newest kept" (Cache.find_opt c2 ~key:"k200" <> None);
            Cache.close c2);
        check_raises_invalid "negative threshold" (fun () ->
            with_log (fun path ->
                ignore
                  (Cache.open_backing ~compact_threshold:(-1) (Cache.create ())
                     ~path ~encode:Fun.id ~decode:Fun.id))));
    test "compact is a no-op on an unbacked or closed cache" (fun () ->
        let c = Cache.create () in
        Cache.add c ~key:"k" "v";
        check_int "unbacked" 0 (Cache.compact c);
        with_log (fun path ->
            let c2, _ = open_str path in
            Cache.add c2 ~key:"k" "v";
            Cache.close c2;
            check_int "closed" 0 (Cache.compact c2)));
  ]

(* ------------------------------------------------------------------ *)
(* key: canonical digests *)

let key_tests =
  [
    test "digests are stable and length-prefixing prevents aliasing" (fun () ->
        Alcotest.(check string)
          "stable" (Key.digest [ "a"; "b" ]) (Key.digest [ "a"; "b" ]);
        check_true "field boundaries matter"
          (Key.digest [ "ab"; "c" ] <> Key.digest [ "a"; "bc" ]);
        check_true "string helper length-prefixes" (Key.string "ab" <> Key.string "b"));
    test "duration digests ignore insertion order" (fun () ->
        let build order =
          let d = Dur.create () in
          List.iter (fun (op, operator, w) -> Dur.set d ~op ~operator w) order;
          Key.durations d
        in
        let entries = [ ("a", "P0", 0.1); ("b", "P0", 0.2); ("a", "P1", 0.3) ] in
        Alcotest.(check string)
          "canonical" (build entries) (build (List.rev entries)));
    test "duration digests see WCET changes" (fun () ->
        let build w =
          let d = Dur.create () in
          Dur.set d ~op:"a" ~operator:"P0" w;
          Key.durations d
        in
        check_true "different tables" (build 0.1 <> build 0.2));
    test "mode digests discriminate the law, fraction and seed" (fun () ->
        let jittered seed =
          Translator.Delay_graph.Jittered
            { law = Exec.Timing_law.Uniform; bcet_frac = 0.4; seed }
        in
        check_true "static vs jittered"
          (Key.mode Translator.Delay_graph.Static_wcet <> Key.mode (jittered 1));
        check_true "seeds" (Key.mode (jittered 1) <> Key.mode (jittered 2)));
    test "algorithm digests see the period and the graph" (fun () ->
        let alg period extra =
          let a = Alg.create ~name:"alg" ~period in
          let s = Alg.add_op a ~name:"s" ~kind:Alg.Sensor ~outputs:[| 1 |] () in
          let c = Alg.add_op a ~name:"c" ~kind:Alg.Compute ~inputs:[| 1 |] () in
          Alg.depend a ~src:(s, 0) ~dst:(c, 0);
          if extra then ignore (Alg.add_op a ~name:"x" ~kind:Alg.Compute ());
          Key.algorithm a
        in
        Alcotest.(check string) "stable" (alg 0.1 false) (alg 0.1 false);
        check_true "period" (alg 0.1 false <> alg 0.2 false);
        check_true "extra op" (alg 0.1 false <> alg 0.1 true));
  ]

(* ------------------------------------------------------------------ *)
(* pareto: non-dominated fronts *)

let pareto_tests =
  [
    test "front matches the hand-computed oracle" (fun () ->
        let points = [ (1., 5.); (2., 4.); (3., 3.); (2., 6.); (4., 3.); (3., 5.) ] in
        let objectives (a, b) = [| a; b |] in
        Alcotest.(check (list (pair (float 0.) (float 0.))))
          "front"
          [ (1., 5.); (2., 4.); (3., 3.) ]
          (Pareto.front ~objectives points));
    test "identical points all survive" (fun () ->
        let points = [ (1., 1.); (1., 1.) ] in
        check_int "both kept" 2
          (List.length (Pareto.front ~objectives:(fun (a, b) -> [| a; b |]) points)));
    test "dominates requires no-worse everywhere and better somewhere" (fun () ->
        check_true "strictly better" (Pareto.dominates [| 1.; 2. |] [| 1.; 3. |]);
        check_false "worse on one" (Pareto.dominates [| 1.; 3. |] [| 2.; 2. |]);
        check_false "equal" (Pareto.dominates [| 1.; 2. |] [| 1.; 2. |]);
        check_raises_invalid "length mismatch" (fun () ->
            ignore (Pareto.dominates [| 1. |] [| 1.; 2. |])));
    test "NaN objectives compare as +inf" (fun () ->
        check_true "nan dominated" (Pareto.dominates [| 0.; 0. |] [| Float.nan; 0. |]);
        let front =
          Pareto.front ~objectives:(fun v -> v) [ [| Float.nan; 0. |]; [| 0.; 0. |] ]
        in
        check_int "finite point only" 1 (List.length front));
    qtest ~count:200 "front keeps exactly the non-dominated points"
      QCheck2.Gen.(list_size (0 -- 25) (pair (0 -- 8) (0 -- 8)))
      (fun points ->
        let objectives (a, b) = [| float_of_int a; float_of_int b |] in
        let front = Pareto.front ~objectives points in
        List.for_all
          (fun p ->
            let dominated =
              List.exists (fun q -> Pareto.dominates (objectives q) (objectives p)) points
            in
            List.mem p front = not dominated)
          points);
    test "sort_by sorts ascending and stably" (fun () ->
        Alcotest.(check (list (pair (float 0.) string)))
          "sorted"
          [ (1., "a"); (1., "b"); (2., "c") ]
          (Pareto.sort_by ~objective:fst [ (2., "c"); (1., "a"); (1., "b") ]));
  ]

(* ------------------------------------------------------------------ *)
(* pareto: incremental front *)

let front_of_list points =
  List.fold_left
    (fun f (a, b) -> Pareto.Front.insert f [| a; b |] (a, b))
    Pareto.Front.empty points

(* reference oracle: the pairwise dominance scan the old front used *)
let oracle_front objectives points =
  List.filter
    (fun p ->
      not
        (List.exists (fun q -> Pareto.dominates (objectives q) (objectives p)) points))
    points

let front_tests =
  [
    test "insert keeps the staircase and evicts dominated points" (fun () ->
        let f =
          front_of_list [ (2., 4.); (1., 5.); (3., 3.); (2., 6.); (1.5, 4.5) ]
        in
        Alcotest.(check (list (pair (float 0.) (float 0.))))
          "survivors in insertion order"
          [ (2., 4.); (1., 5.); (3., 3.); (1.5, 4.5) ]
          (Pareto.Front.elements f);
        check_int "size" 4 (Pareto.Front.size f));
    test "full-vector ties all survive, later dominator evicts the bucket"
      (fun () ->
        let f = front_of_list [ (1., 1.); (1., 1.) ] in
        check_int "both kept" 2 (Pareto.Front.size f);
        let f = Pareto.Front.insert f [| 1.; 0.5 |] (1., 0.5) in
        Alcotest.(check (list (pair (float 0.) (float 0.))))
          "bucket evicted" [ (1., 0.5) ]
          (Pareto.Front.elements f));
    test "NaN objectives are normalized to +inf" (fun () ->
        let f = front_of_list [ (Float.nan, 0.); (0., 0.) ] in
        check_int "finite point only" 1 (Pareto.Front.size f);
        match Pareto.Front.points f with
        | [ (objs, _) ] ->
            check_float "normalized first objective" 0. objs.(0)
        | _ -> Alcotest.fail "expected one survivor");
    test "dimensions other than two fall back to the scan" (fun () ->
        let f =
          List.fold_left
            (fun f v -> Pareto.Front.insert f v v)
            Pareto.Front.empty
            [ [| 1.; 2.; 3. |]; [| 2.; 1.; 3. |]; [| 2.; 2.; 4. |]; [| 1.; 2.; 3. |] ]
        in
        check_int "dominated dropped, tie kept" 3 (Pareto.Front.size f));
    test "insert validates the objective count" (fun () ->
        let f = front_of_list [ (1., 1.) ] in
        check_raises_invalid "3 objectives into a 2-objective front" (fun () ->
            ignore (Pareto.Front.insert f [| 1.; 2.; 3. |] (0., 0.)));
        check_raises_invalid "empty vector" (fun () ->
            ignore (Pareto.Front.insert Pareto.Front.empty [||] ())));
    qtest ~count:300 "incremental front equals the pairwise oracle"
      QCheck2.Gen.(list_size (0 -- 40) (pair (0 -- 8) (0 -- 8)))
      (fun points ->
        let points = List.map (fun (a, b) -> (float_of_int a, float_of_int b)) points in
        let objectives (a, b) = [| a; b |] in
        Pareto.Front.elements (front_of_list points)
        = oracle_front objectives points);
    qtest ~count:200 "merge of split halves equals the front of the whole"
      QCheck2.Gen.(
        pair
          (list_size (0 -- 25) (pair (0 -- 6) (0 -- 6)))
          (list_size (0 -- 25) (pair (0 -- 6) (0 -- 6))))
      (fun (xs, ys) ->
        let fl = List.map (fun (a, b) -> (float_of_int a, float_of_int b)) in
        let xs = fl xs and ys = fl ys in
        Pareto.Front.elements
          (Pareto.Front.merge (front_of_list xs) (front_of_list ys))
        = Pareto.Front.elements (front_of_list (xs @ ys)));
  ]

(* ------------------------------------------------------------------ *)
(* grid: declarative candidate spaces *)

let grid_platform ?(label = "mcu") ?(price = 1.) () =
  let durations_of frac =
    let d = Dur.create () in
    let set op share =
      Dur.set d ~op ~operator:"P0" (share *. frac *. 0.05);
      Dur.set_bcet d ~op ~operator:"P0" (0.4 *. share *. frac *. 0.05)
    in
    set "reference" 0.05;
    set "sample_y" 0.2;
    set "pid" 0.6;
    set "hold_u" 0.15;
    d
  in
  { Grid.label; price; architecture = Arch.single (); durations_of }

let grid_tests =
  [
    test "candidates is the row-major cross-product" (fun () ->
        let cs =
          Grid.candidates
            ~fractions:[ 0.5; 0.9 ]
            ~seeds:[ 1; 2 ]
            ~platforms:[ grid_platform (); grid_platform ~label:"duo" ~price:2. () ]
            ()
        in
        check_int "size" 8 (Grid.size cs);
        let tags = List.map Grid.tag cs in
        Alcotest.(check string) "first" "mcu f=0.5 seed=1" (List.hd tags);
        Alcotest.(check string) "last" "duo f=0.9 seed=2" (List.nth tags 7));
    test "no seeds means one static-WCET candidate per cell" (fun () ->
        let cs = Grid.candidates ~fractions:[ 0.5 ] ~platforms:[ grid_platform () ] () in
        check_int "one" 1 (Grid.size cs);
        check_true "static"
          ((List.hd cs).Grid.mode = Translator.Delay_graph.Static_wcet));
    test "validation rejects empty or out-of-range axes" (fun () ->
        check_raises_invalid "no platforms" (fun () ->
            ignore (Grid.candidates ~platforms:[] ()));
        check_raises_invalid "no fractions" (fun () ->
            ignore (Grid.candidates ~fractions:[] ~platforms:[ grid_platform () ] ()));
        check_raises_invalid "fraction > 1" (fun () ->
            ignore (Grid.candidates ~fractions:[ 1.5 ] ~platforms:[ grid_platform () ] ())));
    test "seq streams the same candidates the list materializes" (fun () ->
        let fractions = [ 0.4; 0.7 ] and seeds = [ 3; 4; 5 ] in
        let platforms = [ grid_platform (); grid_platform ~label:"duo" ~price:2. () ] in
        check_true "same tags"
          (List.of_seq (Seq.map Grid.tag (Grid.seq ~fractions ~seeds ~platforms ()))
          = List.map Grid.tag (Grid.candidates ~fractions ~seeds ~platforms ())));
    test "count sizes the grid without materializing it" (fun () ->
        let platforms = [ grid_platform () ] in
        check_int "static grid" 3 (Grid.count ~platforms ());
        check_int "seeded"
          (2 * 4)
          (Grid.count ~fractions:[ 0.4; 0.7 ] ~seeds:[ 1; 2; 3; 4 ] ~platforms ());
        check_raises_invalid "validated eagerly" (fun () ->
            ignore (Grid.count ~platforms:[] ())));
    test "a million-candidate seq is lazy" (fun () ->
        let platforms = [ grid_platform () ] in
        let seeds = List.init 1_000_000 (fun i -> i) in
        let s = Grid.seq ~fractions:[ 0.5 ] ~seeds ~platforms () in
        check_int "count" 1_000_000 (Grid.count ~fractions:[ 0.5 ] ~seeds ~platforms ());
        (* forcing three elements must not walk the rest *)
        Alcotest.(check (list string))
          "first three"
          [ "mcu f=0.5 seed=0"; "mcu f=0.5 seed=1"; "mcu f=0.5 seed=2" ]
          (List.of_seq (Seq.map Grid.tag (Seq.take 3 s))));
  ]

(* ------------------------------------------------------------------ *)
(* the engine end to end: Explorer, Sweep, Montecarlo, Robustness *)

let dc_design ?(name = "dc_motor") ?(ts = 0.05) () =
  Lifecycle.Design.pid_loop ~name
    ~plant:(Control.Plants.dc_motor Control.Plants.default_dc_motor)
    ~x0:[| 0.; 0. |]
    ~gains:{ Control.Pid.kp = 60.; ki = 80.; kd = 0. }
    ~ts ~reference:1. ~horizon:0.5 ()

let small_grid () =
  Grid.candidates
    ~fractions:[ 0.3; 0.8 ]
    ~seeds:[ 11 ]
    ~platforms:[ grid_platform (); grid_platform ~label:"fast" ~price:2. () ]
    ()

let engine_tests =
  [
    test "explorer points are identical through 1- and 2-domain pools" (fun () ->
        let designs = [ dc_design () ] and candidates = small_grid () in
        let seq =
          Pool.with_pool ~domains:1 (fun pool ->
              Explorer.evaluate ~pool ~designs ~candidates ())
        in
        let par =
          Pool.with_pool ~domains:2 (fun pool ->
              Explorer.evaluate ~pool ~designs ~candidates ())
        in
        check_int "point count" 4 (List.length seq);
        check_true "bit-identical" (seq = par));
    test "a shared cache replays the second evaluation" (fun () ->
        let designs = [ dc_design () ] and candidates = small_grid () in
        let cache = Cache.create () in
        let pool = pools.(0) in
        let first = Explorer.evaluate ~pool ~cache ~designs ~candidates () in
        let misses = (Cache.stats cache).Cache.misses in
        let second = Explorer.evaluate ~pool ~cache ~designs ~candidates () in
        let s = Cache.stats cache in
        check_true "same points" (first = second);
        check_true "hits on replay" (s.Cache.hits > 0);
        check_int "no new misses" misses s.Cache.misses);
    test "the pareto front is a subset of the feasible points" (fun () ->
        let points =
          Explorer.evaluate ~pool:pools.(0) ~designs:[ dc_design () ]
            ~candidates:(small_grid ()) ()
        in
        let front = Explorer.pareto points in
        check_true "non-empty" (front <> []);
        let feasible = Explorer.feasible points in
        check_true "subset" (List.for_all (fun p -> List.mem p feasible) front));
    test "markdown section renders the front and the cache stats" (fun () ->
        let cache = Cache.create () in
        let points =
          Explorer.evaluate ~pool:pools.(0) ~cache ~designs:[ dc_design () ]
            ~candidates:(small_grid ()) ()
        in
        let section = Explorer.markdown_section ~cache points in
        check_true "section header" (contains section "## Design-space exploration");
        check_true "front" (contains section "### Pareto front");
        check_true "cache" (contains section "### Evaluation cache");
        check_true "csv rows" (List.length points + 1 = List.length
             (String.split_on_char '\n' (String.trim (Explorer.csv points)))));
    test "Report.markdown splices the exploration section" (fun () ->
        let design = dc_design () in
        let comparison =
          Lifecycle.Methodology.evaluate ~design ~architecture:(Arch.single ())
            ~durations:((grid_platform ()).Grid.durations_of 0.5)
            ()
        in
        let report =
          Lifecycle.Report.markdown ~exploration:"## Design-space exploration\nMARKER"
            design comparison
        in
        check_true "spliced" (contains report "MARKER"));
    test "Sweep.latency through the pool equals the sequential sweep" (fun () ->
        let design = dc_design () in
        let durations_of = (grid_platform ()).Grid.durations_of in
        let fractions = [ 0.2; 0.5; 0.8 ] in
        let seq =
          Pool.with_pool ~domains:1 (fun pool ->
              Lifecycle.Sweep.latency ~fractions ~pool ~design
                ~architecture:(Arch.single ()) ~durations_of ())
        in
        let par =
          Pool.with_pool ~domains:3 (fun pool ->
              Lifecycle.Sweep.latency ~fractions ~pool ~design
                ~architecture:(Arch.single ()) ~durations_of ())
        in
        check_true "identical" (seq = par));
    test "Montecarlo surfaces its seeds and is pool-invariant" (fun () ->
        let design = dc_design () in
        let implementation =
          Lifecycle.Methodology.implement ~design ~architecture:(Arch.single ())
            ~durations:((grid_platform ()).Grid.durations_of 0.6)
            ()
        in
        let run pool =
          Lifecycle.Montecarlo.run ~runs:6 ~base_seed:500 ~pool ~design ~implementation ()
        in
        let seq = Pool.with_pool ~domains:1 run in
        let par = Pool.with_pool ~domains:2 run in
        Alcotest.(check (array int))
          "seed array" (Array.init 6 (fun i -> 500 + i)) seq.Lifecycle.Montecarlo.seeds;
        check_true "identical costs"
          (seq.Lifecycle.Montecarlo.costs = par.Lifecycle.Montecarlo.costs);
        (* a shared cache replays every draw of a repeated summary *)
        let cache = Cache.create () in
        let cached () =
          Lifecycle.Montecarlo.run ~runs:6 ~base_seed:500 ~pool:pools.(0) ~cache ~design
            ~implementation ()
        in
        let first = cached () in
        let second = cached () in
        check_true "replayed" (first.Lifecycle.Montecarlo.costs = second.Lifecycle.Montecarlo.costs);
        check_true "hits" ((Cache.stats cache).Cache.hits >= 6));
    test "Montecarlo.run on two domains equals one domain, run after run" (fun () ->
        (* both domains start on their first seed at once: any key the
           map closure computes lazily would be forced from two domains
           together, which raises [CamlinternalLazy.Undefined] *)
        let design = dc_design () in
        let implementation =
          Lifecycle.Methodology.implement ~design ~architecture:(Arch.single ())
            ~durations:((grid_platform ()).Grid.durations_of 0.6)
            ()
        in
        let bits (s : Lifecycle.Montecarlo.summary) =
          Array.map Int64.bits_of_float s.Lifecycle.Montecarlo.costs
        in
        let run ?cache pool =
          bits
            (Lifecycle.Montecarlo.run ~runs:4 ~base_seed:900 ~pool ?cache ~design
               ~implementation ())
        in
        let one = Pool.with_pool ~domains:1 run in
        Pool.with_pool ~domains:2 (fun pool ->
            for i = 1 to 10 do
              Lifecycle.Session.clear_cached ();
              Alcotest.(check (array int64)) (Printf.sprintf "run %d" i) one (run pool);
              Alcotest.(check (array int64))
                (Printf.sprintf "run %d, cached" i)
                one
                (run ~cache:(Cache.create ()) pool)
            done));
    test "Robustness.evaluate is pool-invariant" (fun () ->
        let design = dc_design () in
        let architecture =
          Arch.bus_topology ~latency:0.0005 ~time_per_word:0.0005 [ "P0"; "P1" ]
        in
        let durations =
          let d = Dur.create () in
          let set op share =
            List.iter
              (fun operator -> Dur.set d ~op ~operator (share *. 0.6 *. 0.05))
              [ "P0"; "P1" ]
          in
          set "reference" 0.05;
          set "sample_y" 0.2;
          set "pid" 0.6;
          set "hold_u" 0.15;
          d
        in
        let scenarios =
          [
            Fault.Scenario.make ~name:"loss" ~seed:5
              [ Fault.Scenario.Message_loss { medium = None; prob = 0.2 } ];
            Fault.Scenario.make ~name:"p1_down" ~seed:6
              [ Fault.Scenario.Processor_failstop { operator = "P1"; at = 0. } ];
          ]
        in
        let run pool =
          Fault.Robustness.evaluate ~iterations:40 ~pool ~design ~architecture ~durations
            ~scenarios ()
        in
        let seq = Pool.with_pool ~domains:1 run in
        let par = Pool.with_pool ~domains:2 run in
        let strip (s : Fault.Robustness.summary) =
          List.map
            (fun (o : Fault.Robustness.outcome) ->
              (o.Fault.Robustness.cost, o.degradation_pct, o.lost_transfers, o.stale_reads))
            s.Fault.Robustness.outcomes
        in
        check_true "identical outcomes" (strip seq = strip par);
        check_float "same worst" seq.Fault.Robustness.worst_degradation_pct
          par.Fault.Robustness.worst_degradation_pct);
  ]

(* ------------------------------------------------------------------ *)
(* streaming evaluation and engine reuse *)

let seeded_grid ?(fractions = [ 0.3; 0.8 ]) ?(seeds = [ 11; 12; 13 ]) () =
  Grid.candidates ~fractions ~seeds
    ~platforms:[ grid_platform (); grid_platform ~label:"fast" ~price:2. () ]
    ()

let engine_seq_tests =
  [
    test "engine reuse is bit-for-bit equal to rebuild-per-candidate" (fun () ->
        let designs = [ dc_design () ] and candidates = seeded_grid () in
        let eval ~engine_reuse domains =
          Pool.with_pool ~domains (fun pool ->
              Explorer.evaluate ~pool ~engine_reuse ~designs ~candidates ())
        in
        let rebuilt = eval ~engine_reuse:false 1 in
        check_true "reused sequential" (eval ~engine_reuse:true 1 = rebuilt);
        check_true "reused parallel" (eval ~engine_reuse:true 2 = rebuilt));
    qtest ~count:4 "engine reuse equals rebuild on random small grids"
      QCheck2.Gen.(
        triple (1 -- 3) (list_size (1 -- 3) (100 -- 999)) (1 -- 2))
      (fun (nfrac, seeds, domains) ->
        let fractions = List.init nfrac (fun i -> 0.3 +. (0.2 *. float_of_int i)) in
        let candidates = seeded_grid ~fractions ~seeds () in
        let designs = [ dc_design ~ts:0.06 () ] in
        let eval engine_reuse =
          Pool.with_pool ~domains (fun pool ->
              Explorer.evaluate ~pool ~engine_reuse ~designs ~candidates ())
        in
        eval true = eval false);
    test "engine reuse recompiles when the timing law changes within a cell"
      (fun () ->
        (* every candidate twice in a row, the second time under
           another law and BCET fraction: a session kept across the
           change would cost the second one under the first law *)
        let designs = [ dc_design () ] in
        let uniform = seeded_grid ~fractions:[ 0.5 ] ~seeds:[ 11; 12 ] () in
        let relaw (c : Grid.candidate) =
          match c.Grid.mode with
          | Translator.Delay_graph.Jittered { seed; _ } ->
              {
                c with
                Grid.mode =
                  Translator.Delay_graph.Jittered
                    { law = Exec.Timing_law.Triangular 0.8; bcet_frac = 0.7; seed };
              }
          | Translator.Delay_graph.Static_wcet -> c
        in
        let candidates = List.concat_map (fun c -> [ c; relaw c ]) uniform in
        let eval engine_reuse =
          Explorer.evaluate ~pool:pools.(0) ~engine_reuse ~designs ~candidates ()
        in
        check_true "reuse equals rebuild" (eval true = eval false));
    test "evaluate_seq agrees with evaluate and samples bit-for-bit" (fun () ->
        let designs = [ dc_design () ] and candidates = seeded_grid () in
        let points =
          Explorer.evaluate ~pool:pools.(0) ~designs ~candidates ()
        in
        let summary =
          Explorer.evaluate_seq ~pool:pools.(0) ~sample_every:2 ~designs
            ~candidates:(List.to_seq candidates) ()
        in
        check_int "evaluated" (List.length points) summary.Explorer.s_evaluated;
        check_int "feasible" (List.length (Explorer.feasible points))
          summary.Explorer.s_feasible;
        check_true "front equals the sorted batch front"
          (summary.Explorer.s_front
          = Pareto.sort_by
              ~objective:(fun (p : Explorer.point) -> p.Explorer.price)
              (Explorer.pareto points));
        let expected_samples =
          List.filteri (fun i _ -> i mod 2 = 0) points
          |> List.mapi (fun k p -> (2 * k, p))
        in
        check_true "samples are the even-indexed points"
          (summary.Explorer.s_samples = expected_samples));
    test "evaluate_seq is pool-invariant including snapshots" (fun () ->
        let designs = [ dc_design () ] and candidates = seeded_grid () in
        let observe pool =
          let snaps = ref [] in
          let s =
            Explorer.evaluate_seq ~pool ~snapshot_every:4
              ~snapshot:(fun p -> snaps := p :: !snaps)
              ~sample_every:5 ~designs ~candidates:(List.to_seq candidates) ()
          in
          (s, List.rev !snaps)
        in
        let seq = Pool.with_pool ~domains:1 observe in
        let par = Pool.with_pool ~domains:2 observe in
        check_true "same summary" (fst seq = fst par);
        check_true "same snapshots" (snd seq = snd par);
        check_true "snapshots carry a non-empty running front"
          (match snd seq with
          | p :: _ -> p.Explorer.p_front <> [] && p.Explorer.p_evaluated = 4
          | [] -> false));
    test "a raising candidate stream surfaces the producer exception" (fun () ->
        let candidates =
          Seq.append
            (List.to_seq (seeded_grid ~seeds:[ 7 ] ()))
            (fun () -> failwith "stream torn")
        in
        Array.iter
          (fun pool ->
            match
              Explorer.evaluate_seq ~pool ~designs:[ dc_design () ] ~candidates ()
            with
            | exception Failure _ -> ()
            | _ -> Alcotest.fail "expected the producer failure to surface")
          [| pools.(0); pools.(1) |]);
    test "evaluate_seq rejects empty designs" (fun () ->
        check_raises_invalid "no designs" (fun () ->
            ignore
              (Explorer.evaluate_seq ~pool:pools.(0) ~designs:[]
                 ~candidates:Seq.empty ())));
  ]

let suites =
  [
    ("explore.pool", pool_tests);
    ("explore.stream", stream_tests);
    ("explore.cache", cache_tests);
    ("explore.cache_persist", persist_tests);
    ("explore.key", key_tests);
    ("explore.pareto", pareto_tests);
    ("explore.front", front_tests);
    ("explore.grid", grid_tests);
    ("explore.engine", engine_tests);
    ("explore.engine_seq", engine_seq_tests);
  ]
