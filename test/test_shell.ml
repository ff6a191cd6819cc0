(* The interactive shell engine, driven by feeding input strings. *)


open Helpers

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let feed inputs =
  List.fold_left
    (fun (st, outputs) input ->
      let st, out = Shell.exec st input in
      (st, out :: outputs))
    (Shell.initial, []) inputs
  |> fun (st, outputs) -> (st, List.rev outputs)

let with_ps_csv f =
  let path = Filename.temp_file "nullrel_shell" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Storage.Csv.write_file path
        [ a_ "S#"; a_ "P#" ]
        Paperdata.Fixtures.ps;
      f path)

(* A temporary CSV file holding [rows]; the caller removes it. *)
let temp_csv rows =
  let path = Filename.temp_file "nullrel_shell" ".csv" in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc rows);
  path

let test_help_and_quit () =
  let st, outputs = feed [ ".help"; ".quit" ] in
  Alcotest.(check bool) "finished after quit" true (Shell.finished st);
  (match outputs with
  | [ help; bye ] ->
      Alcotest.(check bool) "help mentions .load" true (contains help ".load");
      Alcotest.(check string) "bye" "bye" bye
  | _ -> Alcotest.fail "expected two outputs")

let test_load_list_show_query () =
  with_ps_csv (fun path ->
      let _, outputs =
        feed
          [
            Printf.sprintf ".load PS %s" path;
            ".list";
            ".show PS";
            "range of p is PS retrieve (p.S#) where p.P# = \"p1\"";
          ]
      in
      match outputs with
      | [ loaded; listed; shown; queried ] ->
          Alcotest.(check bool) "loaded 5 tuples" true
            (contains loaded "5 tuples");
          Alcotest.(check string) "list" "PS" listed;
          Alcotest.(check bool) "show prints the table" true
            (contains shown "s4" && contains shown "p4");
          Alcotest.(check bool) "query answers s1 and s2" true
            (contains queried "s1" && contains queried "s2"
            && not (contains queried "s3"))
      | _ -> Alcotest.fail "expected four outputs")

let test_plan_command () =
  with_ps_csv (fun path ->
      let _, outputs =
        feed
          [
            Printf.sprintf ".load PS %s" path;
            ".plan range of p is PS retrieve (p.S#) where p.P# = \"p1\"";
          ]
      in
      match outputs with
      | [ _; planned ] ->
          Alcotest.(check bool) "shows raw and optimized" true
            (contains planned "raw:" && contains planned "optimized:");
          Alcotest.(check bool) "selection pushed to the base" true
            (contains planned "select[P# = p1](PS)")
      | _ -> Alcotest.fail "expected two outputs")

let test_errors_are_text () =
  let _, outputs =
    feed
      [
        ".show NOPE";
        ".load X /nonexistent/file.csv";
        "range of e is NOPE retrieve (e.A)";
        "range of";
        ".bogus";
      ]
  in
  List.iter
    (fun out ->
      Alcotest.(check bool) "every failure reports as text" true
        (contains out "error" || contains out "parse error"))
    outputs

(* A declared index picks the physical join, never the answer: an int
   column compared with a string column raises with or without the
   index on the string side. *)
let test_index_keeps_type_errors () =
  let r = temp_csv "A,C\n1,1\n2,2\n" and s_ = temp_csv "B,D\nx,2\ny,3\n" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ r; s_ ])
    (fun () ->
      let q =
        "range of x is R range of y is S retrieve (x.C, y.D) where x.A = y.B"
      in
      let _, outputs =
        feed
          [ ".load R " ^ r; ".load S " ^ s_; q; ".index S hash B"; q;
            ".explain analyze " ^ q ]
      in
      match outputs with
      | [ _; _; plain; _; indexed; explained ] ->
          List.iter
            (fun (label, out) ->
              Alcotest.(check string) label
                "type error: cannot compare int with string" out)
            [ ("without the index", plain); ("with the index", indexed);
              ("explain analyze with the index", explained) ]
      | _ -> Alcotest.fail "expected six outputs")

(* A retrieve gets the calculus evaluator's answer or error, whatever
   order the plan runs its comparisons in. R's columns are both int and
   S is empty; [run inputs] feeds the shell [.load R], [.load S] and
   then [inputs], and returns their outputs with the text the evaluator
   gives each retrieve. *)
let with_int_r_empty_s run =
  let r = temp_csv "A,B\n1,2\n3,4\n" and s_ = temp_csv "C,D\n" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ r; s_ ])
    (fun () ->
      run (fun inputs ->
          let st, outputs =
            feed ([ ".load R " ^ r; ".load S " ^ s_ ] @ inputs)
          in
          let evaluated src =
            let db = Storage.Catalog.to_db (Shell.catalog st) in
            match Quel.Eval.run db (Quel.Parser.parse src) with
            | res ->
                Nullrel.Pp.to_string
                  (Nullrel.Pp.table res.Quel.Eval.attrs)
                  res.Quel.Eval.rel
            | exception Nullrel.Value.Type_error msg -> "type error: " ^ msg
          in
          (List.tl (List.tl outputs), evaluated)))

(* Pushed down, [r.A = 5] empties R before [r.B < "x"] can raise; the
   evaluator makes both comparisons on every tuple. *)
let test_retrieve_raises_where_the_evaluator_does () =
  with_int_r_empty_s (fun feed ->
      let q = "range of r is R retrieve (r.A) where r.B < \"x\" and r.A = 5" in
      match feed [ q; ".explain analyze " ^ q ] with
      | [ out; explained ], evaluated ->
          Alcotest.(check string) "the evaluator's type error" (evaluated q)
            out;
          Alcotest.(check string) "explain analyze raises it too" out explained;
          Alcotest.(check string) "which is a type error"
            "type error: cannot compare int with string" out
      | _ -> Alcotest.fail "expected two outputs")

(* Pushed into R, [r.B < "x"] would raise, but the product with the
   empty S gives the evaluator no pair to compare. *)
let test_retrieve_answers_where_the_evaluator_does () =
  with_int_r_empty_s (fun feed ->
      let q =
        "range of r is R range of s is S retrieve (r.A) where r.B < \"x\""
      in
      match feed [ q; ".explain analyze " ^ q ] with
      | [ out; explained ], evaluated ->
          Alcotest.(check string) "the evaluator's empty answer" (evaluated q)
            out;
          Alcotest.(check bool) "explain analyze names the evaluator" true
            (contains explained "evaluator answered"
            && not (contains explained "est/act"))
      | _ -> Alcotest.fail "expected two outputs")

let test_save_open_roundtrip () =
  with_ps_csv (fun path ->
      let dir =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "nullrel_shell_%d" (Random.int 1_000_000))
      in
      Fun.protect
        ~finally:(fun () ->
          if Sys.file_exists dir then begin
            Array.iter
              (fun e -> Sys.remove (Filename.concat dir e))
              (Sys.readdir dir);
            Sys.rmdir dir
          end)
        (fun () ->
          let _, outputs =
            feed
              [
                Printf.sprintf ".load PS %s" path;
                Printf.sprintf ".save %s" dir;
                ".quit";
              ]
          in
          Alcotest.(check bool) "saved" true
            (match outputs with [ _; saved; _ ] -> contains saved "saved" | _ -> false);
          let _, outputs =
            feed [ Printf.sprintf ".open %s" dir; ".check"; ".list" ]
          in
          match outputs with
          | [ opened; checked; listed ] ->
              Alcotest.(check bool) "opened one relation" true
                (contains opened "1 relations");
              Alcotest.(check bool) "integrity ok" true (contains checked "ok");
              Alcotest.(check string) "PS is back" "PS" listed
          | _ -> Alcotest.fail "expected three outputs"))

(* [.save] over a directory whose journal still holds a committed
   append: the saved checkpoint must supersede that record, or reopening
   replays it and brings back the row the shell deleted. *)
let test_save_supersedes_journal () =
  Test_durability.with_temp_dir (fun dir ->
      let open Nullrel in
      Storage.Persist.save ~dir
        (Storage.Catalog.add Storage.Catalog.empty
           (Schema.make "R" [ ("A", Domain.Ints); ("B", Domain.Ints) ])
           (x
              [
                Tuple.of_strings [ ("A", i 1); ("B", i 10) ];
                Tuple.of_strings [ ("A", i 2) ];
              ]));
      Test_durability.with_writer ~dir (fun _ sess ->
          Test_durability.commit_stmt sess "append to R (A = 3, B = 30)");
      let _, outputs =
        feed
          [
            Printf.sprintf ".open %s" dir;
            "range of r is R delete r where r.A = 3";
            Printf.sprintf ".save %s" dir;
            Printf.sprintf ".open %s" dir;
            "range of r is R retrieve (r.A, r.B)";
          ]
      in
      match outputs with
      | [ _; deleted; _; reopened; rows ] ->
          Alcotest.(check bool) "the delete ran" true
            (contains deleted "1 tuple deleted");
          Alcotest.(check bool) "reopens clean: nothing left to replay" false
            (contains reopened "problems found");
          Alcotest.(check bool) "the deleted row stays deleted" false
            (contains rows "30");
          Alcotest.(check bool) "the other rows are back" true
            (contains rows "10")
      | _ -> Alcotest.fail "expected five outputs")

let test_agg_command () =
  with_ps_csv (fun path ->
      let _, outputs =
        feed
          [
            Printf.sprintf ".load PS %s" path;
            ".agg count range of p is PS retrieve (p.P#) where p.S# = \"s1\"";
            ".agg count range of p is PS retrieve (p.S#) where p.P# = \"p1\"";
            ".agg bogus range of p is PS retrieve (p.S#)";
          ]
      in
      match outputs with
      | [ _; counted; infinite; bad ] ->
          Alcotest.(check bool) "count bounds printed" true
            (contains counted "bounds: 2 .. 2");
          Alcotest.(check bool) "infinite domain reported" true
            (contains infinite "infinite domain");
          Alcotest.(check bool) "bad kind reported" true (contains bad "error")
      | _ -> Alcotest.fail "expected four outputs")

(* The contract: [Shell.exec] never raises. Whatever garbage arrives,
   the result is an error string and the catalog is untouched. *)
let hostile_inputs =
  [
    ".open /nonexistent/place";
    ".open /dev/null";
    ".fsck /nonexistent/place";
    ".save /nonexistent/parent/dir/x";
    ".load";
    ".load X";
    ".open";
    ".fsck";
    ".save";
    ".show";
    ".schema";
    ".load PS /etc";
    ".plan not a query at all";
    ".plan range of p is MISSING retrieve (p.A)";
    ".agg sum nonsense range of p is PS retrieve (p.A)";
    ".agg";
    "range of p is";
    "append to NOWHERE (A = 1)";
    "range of v is NOWHERE delete v";
    "append to";
    "\"unterminated";
    ".quit extra args";
    "....";
    ".";
    ".limit bogus";
    ".limit time";
    ".limit time x";
    ".limit time -1";
    ".limit tuples";
    ".limit tuples x";
    ".limit tuples -3";
    ".limit tuples 0";
    ".limit time 1 extra";
    ".analyze MISSING";
    ".stats-catalog extra args";
    (* out-of-range integer literal: must be a lexer error, not a crash *)
    "range of p is PS retrieve (p.S#) where p.P# = 99999999999999999999";
  ]

let test_never_raises () =
  with_ps_csv (fun path ->
      let st, _ = Shell.exec Shell.initial (Printf.sprintf ".load PS %s" path) in
      let before = Storage.Catalog.to_db (Shell.catalog st) in
      List.iter
        (fun input ->
          match Shell.exec st input with
          | st', out ->
              Alcotest.(check bool)
                (Printf.sprintf "%S reports an error" input)
                true
                (contains out "error" || contains out "problems found");
              Alcotest.(check bool)
                (Printf.sprintf "%S leaves the catalog unchanged" input)
                true
                (List.length (Storage.Catalog.to_db (Shell.catalog st'))
                 = List.length before)
          | exception e ->
              Alcotest.failf "%S raised %s" input (Printexc.to_string e))
        hostile_inputs)

let test_limits () =
  with_ps_csv (fun path ->
      let _, outputs =
        feed
          [
            Printf.sprintf ".load PS %s" path;
            ".limit";
            ".limit time 30";
            ".limit tuples 100000";
            ".limit";
            (* generous limits: the query still answers *)
            "range of p is PS retrieve (p.S#) where p.P# = \"p1\"";
            ".limit off";
            ".limit";
          ]
      in
      match outputs with
      | [ _; off0; set_t; set_n; both; answered; cleared; off1 ] ->
          Alcotest.(check string) "initially off" "limits: off" off0;
          Alcotest.(check bool) "time set" true (contains set_t "time 30s");
          Alcotest.(check bool) "tuples set" true
            (contains set_n "tuples 100000");
          Alcotest.(check bool) "both reported" true
            (contains both "time 30s" && contains both "tuples 100000");
          Alcotest.(check bool) "query still answers under limits" true
            (contains answered "s1");
          Alcotest.(check string) "off clears" "limits: off" cleared;
          Alcotest.(check string) "stays off" "limits: off" off1
      | _ -> Alcotest.fail "expected eight outputs")

let test_limit_timeout_aborts () =
  with_ps_csv (fun path ->
      let _, outputs =
        feed
          [
            Printf.sprintf ".load PS %s" path;
            ".limit time 0";
            "range of p is PS retrieve (p.S#)";
            ".list";
          ]
      in
      match outputs with
      | [ _; _; aborted; listed ] ->
          Alcotest.(check bool) "statement aborts with a timeout" true
            (contains aborted "timeout");
          Alcotest.(check string) "the shell survives" "PS" listed
      | _ -> Alcotest.fail "expected four outputs")

let test_limit_admission_control () =
  with_ps_csv (fun path ->
      let _, outputs =
        feed
          [
            Printf.sprintf ".load PS %s" path;
            ".limit tuples 2";
            (* a self-product of PS (5 tuples): estimated cost far above 2 *)
            "range of p is PS range of q is PS retrieve (p.S#, q.P#)";
          ]
      in
      match outputs with
      | [ _; _; rejected ] ->
          Alcotest.(check bool) "rejected by admission control" true
            (contains rejected "rejected"
            && contains rejected "tuple budget 2")
      | _ -> Alcotest.fail "expected three outputs")

let test_limit_budget_aborts_dml () =
  with_ps_csv (fun path ->
      (* updates bypass admission control (no plan): the runtime budget
         must catch them instead *)
      let _, outputs =
        feed
          [
            Printf.sprintf ".load PS %s" path;
            ".limit tuples 1";
            "range of p is PS delete p where p.S# = \"s1\"";
            ".limit off";
            ".show PS";
          ]
      in
      match outputs with
      | [ _; _; aborted; _; shown ] ->
          Alcotest.(check bool) "budget abort reported" true
            (contains aborted "tuples exceeded"
            || contains aborted "budget");
          Alcotest.(check bool) "catalog untouched by the abort" true
            (contains shown "s1")
      | _ -> Alcotest.fail "expected five outputs")

(* Regression: an out-of-range int literal used to escape the lexer as
   a bare [Failure] from [int_of_string]; it must come back classified. *)
let test_out_of_range_literal () =
  let _, out =
    Shell.exec Shell.initial
      "range of p is PS retrieve (p.S#) where p.P# = 99999999999999999999"
  in
  Alcotest.(check bool) "classified as a lex error" true
    (contains out "error" && contains out "out of range")

let test_analyze_and_stats_catalog () =
  with_ps_csv (fun path ->
      let _, outputs =
        feed
          [
            Printf.sprintf ".load PS %s" path;
            ".stats-catalog";
            ".analyze";
            ".stats-catalog";
            "append to PS (S# = \"s9\", P# = \"p9\")";
            ".stats-catalog";
            ".analyze PS";
            ".stats-catalog";
          ]
      in
      match outputs with
      | [ _; unanalyzed; analyzed; fresh; _; stale; reanalyzed; fresh2 ] ->
          Alcotest.(check bool) "starts unanalyzed" true
            (contains unanalyzed "not analyzed");
          Alcotest.(check bool) "analyze reports the scan" true
            (contains analyzed "analyzed PS: 5 rows");
          Alcotest.(check bool) "fresh after analyze" true
            (contains fresh "fresh");
          Alcotest.(check bool) "append makes them stale" true
            (contains stale "stale");
          Alcotest.(check bool) "re-analyze targets one relation" true
            (contains reanalyzed "analyzed PS");
          Alcotest.(check bool) "fresh again" true (contains fresh2 "fresh")
      | _ -> Alcotest.fail "expected eight outputs")

let test_empty_input () =
  let st, out = Shell.exec Shell.initial "" in
  Alcotest.(check string) "empty input, empty output" "" out;
  Alcotest.(check bool) "not finished" false (Shell.finished st)

let suite =
  [
    Alcotest.test_case "help and quit" `Quick test_help_and_quit;
    Alcotest.test_case "load, list, show, query" `Quick
      test_load_list_show_query;
    Alcotest.test_case ".plan" `Quick test_plan_command;
    Alcotest.test_case "errors come back as text" `Quick test_errors_are_text;
    Alcotest.test_case "save / open roundtrip" `Quick
      test_save_open_roundtrip;
    Alcotest.test_case ".agg" `Quick test_agg_command;
    Alcotest.test_case "hostile input never raises" `Quick test_never_raises;
    Alcotest.test_case ".limit set, report, clear" `Quick test_limits;
    Alcotest.test_case ".limit time 0 aborts statements" `Quick
      test_limit_timeout_aborts;
    Alcotest.test_case "admission control rejects costly plans" `Quick
      test_limit_admission_control;
    Alcotest.test_case "runtime budget catches updates" `Quick
      test_limit_budget_aborts_dml;
    Alcotest.test_case "out-of-range literal is classified" `Quick
      test_out_of_range_literal;
    Alcotest.test_case ".analyze and .stats-catalog" `Quick
      test_analyze_and_stats_catalog;
    Alcotest.test_case "empty input" `Quick test_empty_input;
    Alcotest.test_case ".save supersedes the target's journal" `Quick
      test_save_supersedes_journal;
    Alcotest.test_case "a declared index keeps type errors" `Quick
      test_index_keeps_type_errors;
    Alcotest.test_case "a retrieve raises where the evaluator does" `Quick
      test_retrieve_raises_where_the_evaluator_does;
    Alcotest.test_case "a retrieve answers where the evaluator does" `Quick
      test_retrieve_answers_where_the_evaluator_does;
  ]
