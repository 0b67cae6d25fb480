(* e2e.exe — end-to-end benchmark of the compiler, simulator and nisqd.

   Usage (from the repository root, after `dune build`):
     e2e.exe measure --workload W --seed S --seconds T --trace 0|1 [--out F]
         one workload, one pass; the last stdout line is the result JSON
     e2e.exe run [--seed S] [--seconds T] [--traced] [--out F]
         every workload, each in its own process
     e2e.exe repeat [--runs N] [--seed S] [--seconds T] [--latest F]
         two sets of N runs; medians, quartiles and bound agreement
     e2e.exe smoke [--benchmark F]
         every workload for two seconds, traced and untraced, checked
         against BENCHMARK.json's metric names

   See README.md in this directory for the workloads and metrics. *)

module Json = Nisq_obs.Json

let nisqd_default () =
  Filename.concat (Filename.dirname Sys.executable_name) "../../bin/nisqd.exe"

let parse name rest specs =
  let argv = Array.of_list (name :: rest) in
  try
    Arg.parse_argv ~current:(ref 0) argv (Arg.align specs)
      (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
      ("e2e.exe " ^ name)
  with
  | Arg.Bad msg ->
      prerr_string msg;
      exit 2
  | Arg.Help msg ->
      print_string msg;
      exit 0

let member_exn key j =
  match Json.member key j with Some v -> v | None -> failwith ("missing " ^ key)

let num = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | Json.Null -> Float.nan
  | _ -> failwith "not a number"

(* ------------------------------ measure ----------------------------- *)

let correct (o : Measure.outcome) = o.violations = [] && o.failed = 0

let metrics_json ?(with_n = false) ms =
  Json.Obj
    (List.map
       (fun (x : Measure.metric) ->
         ( x.name,
           Json.Obj
             ([ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ]
             @ if with_n then [ ("n", Json.Int x.n) ] else []) ))
       ms)

(* The result line: the last line of stdout, for tools that run one
   measurement and parse its outcome. *)
let result_json (o : Measure.outcome) =
  Json.Obj
    [
      ("correct", Json.Bool (correct o));
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ("metrics", metrics_json o.metrics);
    ]

(* Everything, for [run], [repeat] and [smoke]. *)
let outcome_json ~seed ~seconds ~traced (o : Measure.outcome) =
  Json.Obj
    [
      ("workload", Json.String o.workload);
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("traced", Json.Bool traced);
      ("correct", Json.Bool (correct o));
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ("metrics", metrics_json ~with_n:true o.metrics);
      ("extras", metrics_json ~with_n:true o.extras);
      ( "result_digest",
        match o.digest with
        | None -> Json.Null
        | Some (d, n) -> Json.Obj [ ("md5", Json.String d); ("n", Json.Int n) ] );
      ("violations", Json.List (List.map (fun v -> Json.String v) o.violations));
    ]

let print_outcome (o : Measure.outcome) =
  let line (x : Measure.metric) =
    (* The rule for tails: name the highest percentile the sample
       supports, so a p99 resting on fewer than 10 samples shows. *)
    let tail =
      if x.name <> "latency_p99_ms" then ""
      else
        match Quant.tail_percentile x.n with
        | Some p -> Printf.sprintf " (highest percentile with >=10 beyond: p%g)" p
        | None -> " (too few samples for any tail percentile)"
    in
    Printf.printf "%-13s %-28s %14.6g %-6s n=%d%s\n" o.workload x.name x.value x.unit_ x.n tail
  in
  List.iter line o.metrics;
  List.iter line o.extras;
  Option.iter
    (fun (d, k) -> Printf.printf "%-13s result_digest=%s over n=%d\n" o.workload d k)
    o.digest;
  List.iter (fun v -> Printf.eprintf "%s: VIOLATION %s\n" o.workload v) o.violations

let measure rest =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let nisqd = ref (nisqd_default ()) and out = ref "" in
  parse "measure" rest
    [
      ("--workload", Arg.Set_string workload, "W figures|serve-hot|serve-wide|serve-reload");
      ("--seed", Arg.Set_int seed, "S workload seed");
      ("--seconds", Arg.Set_float seconds, "T measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.Set_string out, "FILE also write every number as JSON");
      ("--nisqd", Arg.Set_string nisqd, "PATH daemon binary");
    ];
  if not (List.mem !workload Measure.workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  (* serve-reload's traced run gives its daemon pass half the time, and
     the first half-second of that pass is untimed warm-up. *)
  if !seconds < 2.0 then begin
    prerr_endline "--seconds must be at least 2";
    exit 2
  end;
  if not (Sys.file_exists !nisqd) then begin
    prerr_endline (!nisqd ^ " not found; run `dune build` first");
    exit 2
  end;
  let traced = !trace = 1 in
  let o =
    (if traced then Measure.traced else Measure.untraced)
      ~nisqd:!nisqd ~seed:!seed ~seconds:!seconds !workload
  in
  print_outcome o;
  if !out <> "" then
    Json.to_file ~path:!out (outcome_json ~seed:!seed ~seconds:!seconds ~traced o);
  print_endline (Json.to_string (result_json o));
  exit (if correct o then 0 else 1)

(* A [measure] in its own process; returns its exit status, its --out
   document (if written) and its stdout. *)
let measure_child ~nisqd ~workload ~seed ~seconds ~traced =
  let base = Work.fresh_path ("measure-" ^ workload) in
  let out = base ^ ".json" in
  let open_log path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let fd_out = open_log (base ^ ".stdout") and fd_err = open_log (base ^ ".stderr") in
  let pid =
    Work.spawn Sys.executable_name
      [
        "measure"; "--workload"; workload; "--seed"; string_of_int seed;
        "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if traced then "1" else "0");
        "--out"; out; "--nisqd"; nisqd;
      ]
      ~stdout:fd_out ~stderr:fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  let status = Work.reap ~timeout:900.0 pid in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let doc =
    if Sys.file_exists out then Result.to_option (Json.of_string (read out)) else None
  in
  prerr_string (read (base ^ ".stderr"));
  (status, doc, read (base ^ ".stdout"))

let ok_status = function Unix.WEXITED 0 -> true | _ -> false

let metric_values doc =
  match Json.member "metrics" doc with
  | Some (Json.Obj kvs) -> List.map (fun (k, v) -> (k, num (member_exn "value" v))) kvs
  | _ -> []

let digest_of doc =
  match Json.member "result_digest" doc with
  | Some (Json.Obj _ as d) -> (
      match Json.member "md5" d with Some (Json.String s) -> Some s | _ -> None)
  | _ -> None

let common_flags ~seed ~seconds ~nisqd =
  [
    ("--seed", Arg.Set_int seed, "S first workload seed");
    ("--seconds", Arg.Set_float seconds, "T measured seconds per run");
    ("--nisqd", Arg.Set_string nisqd, "PATH daemon binary");
  ]

(* -------------------------------- run ------------------------------- *)

let run rest =
  let seed = ref 1 and seconds = ref 20.0 and nisqd = ref (nisqd_default ()) in
  let traced = ref false and out = ref "" in
  parse "run" rest
    (common_flags ~seed ~seconds ~nisqd
    @ [
        ("--traced", Arg.Set traced, " also run the per-layer pass");
        ("--out", Arg.Set_string out, "FILE JSON of every number (default under _e2e/)");
      ]);
  let out = if !out = "" then Work.fresh_path "run" ^ ".json" else !out in
  let passes = if !traced then [ false; true ] else [ false ] in
  let results =
    List.concat_map
      (fun workload ->
        List.map
          (fun traced ->
            let status, doc, stdout =
              measure_child ~nisqd:!nisqd ~workload ~seed:!seed ~seconds:!seconds ~traced
            in
            (* Everything but the final result line; [measure] exits 0
               only when every check passed. *)
            let lines = String.split_on_char '\n' (String.trim stdout) in
            List.iteri (fun i l -> if i < List.length lines - 1 then print_endline l) lines;
            (ok_status status, doc))
          passes)
      Measure.workloads
  in
  Json.to_file ~path:out
    (Json.Obj
       [
         ("seed", Json.Int !seed);
         ("seconds", Json.Float !seconds);
         ("nproc", Json.Int (Domain.recommended_domain_count ()));
         ("nisq_domains", Json.String (Option.value (Sys.getenv_opt "NISQ_DOMAINS") ~default:""));
         ("runs", Json.List (List.filter_map snd results));
       ]);
  Printf.printf "wrote %s\n" out;
  exit (if List.for_all fst results then 0 else 1)

(* ------------------------------ repeat ------------------------------ *)

let today () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1) t.Unix.tm_mday

(* Two sets of [runs] runs of every workload. Set A uses seeds
   S .. S+runs-1 and set B the same seeds in reverse order, so each set
   spreads over seeds the way independent runs do, and every seed's
   result digest can be compared across the sets. *)
let repeat rest =
  let runs = ref 5 and seed = ref 1 and seconds = ref 20.0 in
  let nisqd = ref (nisqd_default ()) and benchmark = ref "BENCHMARK.json" in
  let latest = ref "bench/e2e/LATEST.json" in
  parse "repeat" rest
    (common_flags ~seed ~seconds ~nisqd
    @ [
        ("--runs", Arg.Set_int runs, "N runs per set");
        ("--benchmark", Arg.Set_string benchmark, "FILE metric contract");
        ("--latest", Arg.Set_string latest, "FILE where the medians are written");
      ]);
  let spec = Spec.load !benchmark in
  let seeds_a = List.init !runs (fun i -> !seed + i) in
  let sets = [ seeds_a; List.rev seeds_a ] in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems; prerr_endline s) fmt in
  (* (workload, set) -> list of (seed, doc) *)
  let docs =
    List.concat_map
      (fun workload ->
        List.mapi
          (fun set seeds ->
            ( (workload, set),
              List.filter_map
                (fun s ->
                  let status, doc, _ =
                    measure_child ~nisqd:!nisqd ~workload ~seed:s ~seconds:!seconds ~traced:false
                  in
                  match doc with
                  | Some d when ok_status status -> Some (s, d)
                  | _ ->
                      problem "%s seed %d failed" workload s;
                      None)
                seeds ))
          sets)
      Measure.workloads
  in
  let summary values =
    let q1, med, q3 = Quant.quartiles values in
    (q1, med, q3, Quant.spread values)
  in
  Printf.printf "%-13s %-18s %12s %12s %8s %8s  %s\n" "workload" "metric" "median A"
    "median B" "spread A" "spread B" "verdict";
  let blocks =
    List.map
      (fun workload ->
        let got set = List.assoc (workload, set) docs in
        List.iter
          (fun (s, d) ->
            match List.assoc_opt s (got 1) with
            | Some d' when digest_of d <> digest_of d' ->
                problem "%s seed %d: result_digest differs between sets" workload s
            | _ -> ())
          (got 0);
        let metrics =
          List.map
            (fun (m : Spec.metric) ->
              let values set =
                Array.of_list (List.filter_map (fun (_, d) -> List.assoc_opt m.name (metric_values d)) (got set))
              in
              let a = values 0 and b = values 1 in
              if Array.length a < 2 || Array.length b < 2 then (m.name, Json.Null)
              else begin
                let ((_, ma, _, sa) as qa) = summary a and ((_, mb, _, sb) as qb) = summary b in
                let bound = Option.value m.bound ~default:0.0 in
                (* Spread is not held against set-up time, which is
                   bounded by its median alone. The sets agree when
                   neither median is worse than the other's by more than
                   the bound. *)
                let spread_ok s = m.name = "setup_s" || s <= bound in
                let within base v = Quant.within_bound ~better:m.better ~bound ~base v in
                let agree = spread_ok sa && spread_ok sb && within ma mb && within mb ma in
                Printf.printf "%-13s %-18s %12.6g %12.6g %8.4f %8.4f  %s (bound %.2f)\n" workload
                  m.name ma mb sa sb (if agree then "agree" else "DISAGREE") bound;
                if not agree then problem "%s %s: sets disagree within bound %.2f" workload m.name bound;
                let set_json (q1, med, q3, spread) =
                  Json.Obj
                    [ ("median", Json.Float med); ("q1", Json.Float q1); ("q3", Json.Float q3);
                      ("spread", Json.Float spread) ]
                in
                ( m.name,
                  Json.Obj
                    [ ("unit", Json.String m.unit_); ("bound", Json.Float bound);
                      ("sets", Json.List [ set_json qa; set_json qb ]); ("agree", Json.Bool agree) ] )
              end)
            spec.Spec.end_to_end
        in
        (workload, Json.Obj metrics))
      Measure.workloads
  in
  Json.to_file ~path:!latest
    (Json.Obj
       [
         ("date", Json.String (today ()));
         ("nproc", Json.Int (Domain.recommended_domain_count ()));
         ("nisq_domains", Json.String (Option.value (Sys.getenv_opt "NISQ_DOMAINS") ~default:""));
         ("runs_per_set", Json.Int !runs);
         ("seconds", Json.Float !seconds);
         ("seeds", Json.List (List.map (fun s -> Json.Int s) seeds_a));
         ("workloads", Json.Obj blocks);
       ]);
  Printf.printf "wrote %s\n" !latest;
  exit (if !problems = [] then 0 else 1)

(* ------------------------------- smoke ------------------------------ *)

let smoke rest =
  let seconds = ref 2.0 and nisqd = ref (nisqd_default ()) in
  let benchmark = ref "BENCHMARK.json" in
  parse "smoke" rest
    [
      ("--seconds", Arg.Set_float seconds, "T measured seconds per pass");
      ("--nisqd", Arg.Set_string nisqd, "PATH daemon binary");
      ("--benchmark", Arg.Set_string benchmark, "FILE metric contract");
    ];
  let spec = Spec.load !benchmark in
  let problems = ref [] in
  if spec.Spec.workloads <> Measure.workloads then
    problems := [ "BENCHMARK.json lists other workloads than e2e.exe runs" ];
  List.iter
    (fun workload ->
      List.iter
        (fun traced ->
          let status, _, stdout =
            measure_child ~nisqd:!nisqd ~workload ~seed:1 ~seconds:!seconds ~traced
          in
          let tag = Printf.sprintf "%s (%s)" workload (if traced then "traced" else "untraced") in
          let add p = problems := (tag ^ ": " ^ p) :: !problems in
          if not (ok_status status) then add "exited non-zero";
          let last = List.hd (List.rev (String.split_on_char '\n' (String.trim stdout))) in
          match Json.of_string last with
          | Error e -> add ("last line is not JSON: " ^ e)
          | Ok (Json.Obj kvs as j) ->
              if List.map fst kvs <> [ "correct"; "attempted"; "failed"; "metrics" ] then
                add "result line has other keys than correct/attempted/failed/metrics";
              if Json.member "correct" j <> Some (Json.Bool true) then add "not correct";
              (match Json.member "attempted" j with
              | Some (Json.Int n) when n >= 1 -> ()
              | _ -> add "attempted < 1");
              let reported =
                match Json.member "metrics" j with
                | Some (Json.Obj ms) ->
                    List.map
                      (fun (k, v) ->
                        (match Json.member "value" v with
                        | Some (Json.Float _ | Json.Int _) -> ()
                        | _ -> add (k ^ " has no numeric value"));
                        (k, match Json.member "unit" v with Some (Json.String u) -> u | _ -> ""))
                      ms
                | _ -> []
              in
              List.iter add (Spec.check spec ~traced reported)
          | Ok _ -> add "result line is not an object")
        [ false; true ])
    Measure.workloads;
  match List.rev !problems with
  | [] -> print_endline "smoke: every workload ran, checked and reported its metrics"
  | ps ->
      List.iter prerr_endline ps;
      exit 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Every workload runs with one simulation domain, here and in every
     process started from here. *)
  Unix.putenv "NISQ_DOMAINS" "1";
  match List.tl (Array.to_list Sys.argv) with
  | "measure" :: rest -> measure rest
  | "run" :: rest -> run rest
  | "repeat" :: rest -> repeat rest
  | "smoke" :: rest -> smoke rest
  | "figures-probe" :: rest ->
      let seed = ref 1 in
      parse "figures-probe" rest [ ("--seed", Arg.Set_int seed, "S workload seed") ];
      Measure.figures_probe ~seed:!seed
  | _ ->
      prerr_endline "usage: e2e.exe (measure|run|repeat|smoke) [options]; see README.md";
      exit 2
