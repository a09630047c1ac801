(* The test goldens: test/goldens/NAME.expected holds exactly what the
   test's executable prints under GOLDEN_REGEN, and the test compares
   every result with its line there exactly. Regenerate a file after a
   reviewed behaviour change with

     GOLDEN_REGEN=1 dune exec test/EXE.exe > test/goldens/NAME.expected

   CI regenerates each one and diffs it against the committed file, so
   a stale line fails there even where no test case reads it. *)

(* Under `dune runtest` the test runs in _build/default/test with the
   goldens copied alongside; under `dune exec` from the project root
   the source tree path applies. *)
let path name =
  let file = Filename.concat "goldens" (name ^ ".expected") in
  if Sys.file_exists file then file else Filename.concat "test" file

let lines name =
  In_channel.with_open_bin (path name) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")

let main ~suite ~regen tests =
  if Sys.getenv_opt "GOLDEN_REGEN" <> None then regen ()
  else Alcotest.run suite tests

(* A line's key: its first word (a scenario or target name). *)
let first_word line =
  match String.index_opt line ' ' with
  | Some i -> String.sub line 0 i
  | None -> line
