(* The benchmark's OCaml half: one run of one workload, printing the
   result object as the last line of standard output. perfbench/run.py
   builds this and is the command to call. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let small = ref false and sabotage = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  runner_as64 | gauntlet_faults | check_torus7 | sparse_as10k");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  op time to measure");
      ("--trace", Arg.Set_int trace, "0|1  1 = traced run reporting per-layer figures");
      ("--small", Arg.Set small, " toy sizes (self-check)");
      ("--sabotage", Arg.Set sabotage, " seed a defect the checks must catch (self-check)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match !workload with
    | "runner_as64" -> Runner_wl.run
    | "gauntlet_faults" -> Gauntlet_wl.run
    | "check_torus7" -> Check_wl.run
    | "sparse_as10k" -> Sparse_wl.run
    | w ->
        prerr_endline ("unknown workload " ^ w);
        exit 2
  in
  Measure.print_result
    (run
       {
         Measure.seed = !seed;
         seconds = !seconds;
         trace = !trace = 1;
         small = !small;
         sabotage = !sabotage;
       })
