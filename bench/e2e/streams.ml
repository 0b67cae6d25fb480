module Rng = Nisq_util.Rng
module Config = Nisq_compiler.Config
module Benchmarks = Nisq_bench.Benchmarks
module Protocol = Nisq_serve.Protocol

let draw_days ~seed k =
  let days = Array.init 30 Fun.id in
  Rng.shuffle (Rng.create (Rng.mix seed 1)) days;
  Array.sub days 0 k

let figure_configs =
  Config.
    [|
      make Qiskit;
      make T_smt_star;
      make (R_smt_star 0.5);
      make Greedy_e;
      make Greedy_v;
    |]

type cell = { bench : Benchmarks.t; config : Config.t; day : int }

let figure_batch ~days b =
  let benches = Array.of_list Benchmarks.all in
  let nc = Array.length figure_configs in
  Array.init
    (Array.length benches * nc)
    (fun c ->
      {
        bench = benches.(c / nc);
        config = figure_configs.(c mod nc);
        day = days.((b + c) mod Array.length days);
      })

type request = {
  index : int;
  program : string;
  method_ : Config.method_;
  day : int;
  run : bool;
  sim_seed : int;
}

let serve_methods = Config.[| Qiskit; T_smt_star; R_smt_star 0.5; Greedy_e |]
let run_trials = 1024

(* Stratified: every block of [block] requests holds each (program,
   method) pair [per_pair] times, one of them a [run], in seeded order.
   An iid draw lets the share of costly pairs in a run's sample vary by
   seed, which moves throughput more than the system's own noise. *)
let per_pair = 4

let serve_stream ~seed ~days n =
  let programs =
    Array.of_list (List.map (fun b -> b.Benchmarks.name) Benchmarks.all)
  in
  let pairs =
    Array.concat
      (Array.to_list
         (Array.map (fun p -> Array.map (fun m -> (p, m)) serve_methods) programs))
  in
  let block = Array.length pairs * per_pair in
  let rng = Rng.create (Rng.mix seed 2) in
  let order = Array.init block Fun.id in
  let out = Array.make n None in
  let rec fill start =
    if start < n then begin
      Rng.shuffle rng order;
      Array.iteri
        (fun slot k ->
          let index = start + slot in
          if index < n then
            let program, method_ = pairs.(k / per_pair) in
            out.(index) <-
              Some
                {
                  index;
                  program;
                  method_;
                  day = Rng.choose rng days;
                  run = k mod per_pair = 0;
                  sim_seed = Rng.int rng 1_000_000;
                })
        order;
      fill (start + block)
    end
  in
  fill 0;
  Array.map Option.get out

let verb r =
  let compile =
    {
      Protocol.program = Protocol.Named r.program;
      method_ = r.method_;
      routing = None;
      movement = Config.Swap_back;
      day = r.day;
      calib_seed = Nisq_device.Ibmq16.default_seed;
      emit_qasm = false;
    }
  in
  if r.run then
    Protocol.Run { compile; trials = run_trials; sim_seed = r.sim_seed }
  else Protocol.Compile compile

let solver_keys stream =
  let keys = Hashtbl.create 64 in
  Array.iter
    (fun r ->
      match r.method_ with
      | Config.T_smt_star | Config.R_smt_star _ ->
          Hashtbl.replace keys (r.program, r.method_, r.day) ()
      | _ -> ())
    stream;
  Hashtbl.length keys

type event = Send of int | Reload of int

let schedule ~rate ~seconds ~period =
  let sends =
    List.init
      (int_of_float (rate *. seconds))
      (fun i -> (float_of_int i /. rate, Send i))
  in
  let reloads =
    List.init
      (int_of_float (seconds /. period))
      (fun k -> (float_of_int (k + 1) *. period, Reload k))
    |> List.filter (fun (due, _) -> due < seconds)
  in
  let rank = function Send _ -> 0 | Reload _ -> 1 in
  List.merge
    (fun (a, ea) (b, eb) -> compare (a, rank ea) (b, rank eb))
    sends reloads
  |> Array.of_list

let reload_archive k = if k mod 2 = 0 then `B else `A
